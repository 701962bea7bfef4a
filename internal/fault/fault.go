// Package fault is the deterministic fault-injection layer: a Plan parsed
// from a small directive language schedules timed faults — transient
// link-down windows, probabilistic flit loss, credit-return stalls, whole
// router stalls and adversarial flows exceeding their reservation — against
// named simulator surfaces. Faults are applied by the owning node during
// its compute phase using node-local state and a dedicated per-node RNG
// stream (sim.SeedFor over a fault-specific component id), so a faulted run
// is byte-reproducible regardless of worker count, exactly like a clean
// one.
//
// Degradation is graceful by construction: a denied forward leaves the
// quantum's reservation entry live, so the existing overdue/emergent path
// retries it on a later slot; a stalled credit return is deferred and
// replayed in order, which the cumulative-ledger semantics of
// lsf.Table.ReturnCredit absorb exactly (a late tag increments the whole
// live window). Nothing is silently dropped — every injected fault, lost
// flit and successful retry is counted.
package fault

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"loft/internal/det"
)

// Kind enumerates the fault surfaces a Plan can target.
type Kind uint8

const (
	// LinkDown disables an output link for a cycle window: every forward
	// through it is denied, so booked quanta go overdue and retry.
	LinkDown Kind = iota
	// FlitLoss denies forwards through a link with a per-attempt Bernoulli
	// probability inside the window (transient loss; the quantum retries).
	FlitLoss
	// CreditStall withholds virtual-credit returns arriving on a link's
	// reverse channel for the window, releasing them in order afterwards.
	// The scheduler sees understated credit and throttles conservatively.
	CreditStall
	// RouterStall freezes a node's switch pass (data forwarding and NI
	// injection) for the window; bookings and look-aheads continue.
	RouterStall
	// Adversary scales a flow's injection rate past its reservation for
	// the window. The flow is quarantined: the auditor swaps its
	// delay-bound check for a throttle check against Cap.
	Adversary
)

// String returns the directive name of the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case FlitLoss:
		return "flit-loss"
	case CreditStall:
		return "credit-stall"
	case RouterStall:
		return "router-stall"
	case Adversary:
		return "adversary"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Link-fault direction indices. The first five match topo.Dir (north, east,
// south, west, eject = the ejection link at topo.Local); DirInject is the
// NI→router injection link, which runs the same framed reservation table as
// any router output.
const (
	DirNorth = iota
	DirEast
	DirSouth
	DirWest
	DirEject
	DirInject
	NumDirs
)

var dirNames = [NumDirs]string{"north", "east", "south", "west", "eject", "inject"}

// DirName renders a direction index for display. Out-of-range values —
// including the -1 "not applicable" encoding probe events use — render
// as "-".
func DirName(d int) string {
	if d < 0 || d >= NumDirs {
		return "-"
	}
	return dirNames[d]
}

func dirByName(s string) (int, bool) {
	for i, n := range dirNames {
		if n == s {
			return i, true
		}
	}
	return 0, false
}

// Event is one scheduled fault. The active window is [From, To) in cycles;
// To == 0 means open-ended (active until the run ends).
type Event struct {
	Kind   Kind
	Node   int     // target node (all kinds except Adversary)
	Dir    int     // target link direction (LinkDown, FlitLoss, CreditStall)
	Flow   int     // target flow (Adversary)
	Rate   float64 // FlitLoss: per-attempt loss probability
	Factor float64 // Adversary: injection-rate multiplier
	Cap    float64 // Adversary: quarantine throttle cap, flits/cycle
	From   uint64
	To     uint64
}

// active reports whether the event's window contains cycle now.
func (e Event) active(now uint64) bool {
	return now >= e.From && (e.To == 0 || now < e.To)
}

// String renders the event in canonical directive form (parse round-trips).
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	switch e.Kind {
	case RouterStall:
		fmt.Fprintf(&b, " node=%d", e.Node)
	case Adversary:
		fmt.Fprintf(&b, " flow=%d factor=%s cap=%s", e.Flow, formatFloat(e.Factor), formatFloat(e.Cap))
	default:
		fmt.Fprintf(&b, " node=%d dir=%s", e.Node, dirNames[e.Dir])
		if e.Kind == FlitLoss {
			fmt.Fprintf(&b, " rate=%s", formatFloat(e.Rate))
		}
	}
	fmt.Fprintf(&b, " from=%d", e.From)
	if e.To != 0 {
		fmt.Fprintf(&b, " to=%d", e.To)
	}
	return b.String()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Plan is a parsed, validated fault schedule. The zero Plan (or nil) arms
// nothing.
type Plan struct {
	Events []Event
}

// Parse reads a fault plan from its directive language: one directive per
// line or semicolon-separated, '#' starts a comment. Directives:
//
//	link-down    node=N dir=D from=C [to=C]
//	flit-loss    node=N dir=D rate=P from=C [to=C]
//	credit-stall node=N dir=D from=C [to=C]
//	router-stall node=N from=C [to=C]
//	adversary    flow=F factor=X [cap=R] from=C [to=C]
//
// dir is one of north, east, south, west, eject, inject. Windows are
// [from, to) in cycles; omitting to leaves the fault active to the end of
// the run. adversary's cap defaults to 0.5 flits/cycle.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, line := range strings.FieldsFunc(spec, func(r rune) bool { return r == '\n' || r == ';' }) {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		ev, err := parseEvent(fields)
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", strings.TrimSpace(line), err)
		}
		p.Events = append(p.Events, ev)
	}
	if len(p.Events) == 0 {
		return nil, fmt.Errorf("fault: empty plan")
	}
	return p, nil
}

// Load parses a plan from the argument of a -fault flag: if arg names an
// existing file its contents are the spec, otherwise arg itself is the
// inline spec.
func Load(arg string) (*Plan, error) {
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("fault: %s: %w", arg, err)
		}
		return Parse(string(data))
	}
	return Parse(arg)
}

func parseEvent(fields []string) (Event, error) {
	ev := Event{Dir: -1, Node: -1, Flow: -1, Cap: 0.5}
	switch fields[0] {
	case "link-down":
		ev.Kind = LinkDown
	case "flit-loss":
		ev.Kind = FlitLoss
	case "credit-stall":
		ev.Kind = CreditStall
	case "router-stall":
		ev.Kind = RouterStall
	case "adversary":
		ev.Kind = Adversary
	default:
		return ev, fmt.Errorf("unknown fault kind %q", fields[0])
	}
	seen := map[string]bool{}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return ev, fmt.Errorf("malformed field %q (want key=value)", f)
		}
		if seen[key] {
			return ev, fmt.Errorf("duplicate field %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "node":
			ev.Node, err = strconv.Atoi(val)
		case "dir":
			d, ok := dirByName(val)
			if !ok {
				return ev, fmt.Errorf("unknown dir %q (want north|east|south|west|eject|inject)", val)
			}
			ev.Dir = d
		case "flow":
			ev.Flow, err = strconv.Atoi(val)
		case "rate":
			ev.Rate, err = parseFinite(val)
		case "factor":
			ev.Factor, err = parseFinite(val)
		case "cap":
			ev.Cap, err = parseFinite(val)
		case "from":
			ev.From, err = strconv.ParseUint(val, 10, 64)
		case "to":
			ev.To, err = strconv.ParseUint(val, 10, 64)
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return ev, fmt.Errorf("field %q: %w", f, err)
		}
	}
	return ev, ev.check(seen)
}

// parseFinite parses a float field and rejects NaN and ±Inf, which the
// range checks in check cannot catch: NaN fails every comparison.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return 0, fmt.Errorf("%s is not a finite number", s)
	}
	return f, err
}

// check enforces per-kind required and forbidden fields at parse time, so
// the error names the offending directive rather than surfacing mid-run.
func (e Event) check(seen map[string]bool) error {
	need := func(keys ...string) error {
		for _, k := range keys {
			if !seen[k] {
				return fmt.Errorf("%s requires %s=", e.Kind, k)
			}
		}
		return nil
	}
	forbid := func(keys ...string) error {
		for _, k := range keys {
			if seen[k] {
				return fmt.Errorf("%s does not take %s=", e.Kind, k)
			}
		}
		return nil
	}
	if e.To != 0 && e.To <= e.From {
		return fmt.Errorf("window [%d,%d) is empty", e.From, e.To)
	}
	switch e.Kind {
	case LinkDown, CreditStall:
		if err := need("node", "dir", "from"); err != nil {
			return err
		}
		if e.Kind == CreditStall && e.Dir == DirInject {
			// NI-side credit returns ride the look-ahead booking path and
			// have no reverse channel to stall; use router-stall instead.
			return fmt.Errorf("credit-stall does not support dir=inject")
		}
		return forbid("rate", "factor", "cap", "flow")
	case FlitLoss:
		if err := need("node", "dir", "rate", "from"); err != nil {
			return err
		}
		if e.Rate <= 0 || e.Rate > 1 {
			return fmt.Errorf("flit-loss rate %g outside (0,1]", e.Rate)
		}
		return forbid("factor", "cap", "flow")
	case RouterStall:
		if err := need("node", "from"); err != nil {
			return err
		}
		return forbid("dir", "rate", "factor", "cap", "flow")
	case Adversary:
		if err := need("flow", "factor", "from"); err != nil {
			return err
		}
		if e.Factor <= 0 {
			return fmt.Errorf("adversary factor %g must be positive", e.Factor)
		}
		if e.Cap <= 0 {
			return fmt.Errorf("adversary cap %g must be positive", e.Cap)
		}
		return forbid("node", "dir", "rate")
	}
	return nil
}

// Validate checks every event against the simulated topology: node ids in
// [0, nodes), flow ids in [0, flows).
func (p *Plan) Validate(nodes, flows int) error {
	if p == nil {
		return nil
	}
	for _, e := range p.Events {
		if e.Kind == Adversary {
			if e.Flow < 0 || e.Flow >= flows {
				return fmt.Errorf("fault: %s: flow %d outside [0,%d)", e, e.Flow, flows)
			}
			continue
		}
		if e.Node < 0 || e.Node >= nodes {
			return fmt.Errorf("fault: %s: node %d outside [0,%d)", e, e.Node, nodes)
		}
	}
	return nil
}

// String renders the whole plan in canonical single-line form: directives
// joined by "; ", suitable for a run manifest (Parse round-trips it).
func (p *Plan) String() string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Adversarial reports whether the plan contains only Adversary events
// (the subset architectures without link-level fault surfaces support).
func (p *Plan) Adversarial() bool {
	if p == nil {
		return true
	}
	for _, e := range p.Events {
		if e.Kind != Adversary {
			return false
		}
	}
	return true
}

// Quarantine pairs a misbehaving flow with its throttle cap.
type Quarantine struct {
	Flow int
	Cap  float64 // flits/cycle the auditor allows the flow to accept
}

// Quarantines lists the flows the plan drives adversarially, with the
// tightest cap named for each, sorted by flow id (deterministic iteration).
func (p *Plan) Quarantines() []Quarantine {
	if p == nil {
		return nil
	}
	caps := map[int]float64{}
	for _, e := range p.Events {
		if e.Kind != Adversary {
			continue
		}
		if c, ok := caps[e.Flow]; !ok || e.Cap < c {
			caps[e.Flow] = e.Cap
		}
	}
	out := make([]Quarantine, 0, len(caps))
	for _, f := range det.Keys(caps) {
		out = append(out, Quarantine{Flow: f, Cap: caps[f]})
	}
	return out
}

// RateScale returns the injection-rate multiplier for flow at cycle now:
// the product of every active adversary event targeting it. Pure and
// node-local, so injectors can call it from the compute phase.
func (p *Plan) RateScale(flow int, now uint64) float64 {
	scale := 1.0
	for _, e := range p.Events {
		if e.Kind == Adversary && e.Flow == flow && e.active(now) {
			scale *= e.Factor
		}
	}
	return scale
}

// HasAdversary reports whether any adversary event exists (whether
// injectors need the rate-scale hook at all).
func (p *Plan) HasAdversary() bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == Adversary {
			return true
		}
	}
	return false
}

// ActiveAt counts the events whose window contains cycle now (the
// perfmon gauge behind loft.fault.active).
func (p *Plan) ActiveAt(now uint64) int {
	if p == nil {
		return 0
	}
	k := 0
	for _, e := range p.Events {
		if e.active(now) {
			k++
		}
	}
	return k
}
