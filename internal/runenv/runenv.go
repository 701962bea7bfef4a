// Package runenv captures the nondeterministic facts of the execution
// environment — wall-clock time, git revision and host parallelism — that
// run manifests record for provenance. It is one of the three packages the
// determinism check (internal/lint) exempts, with perfmon and det: every
// other package must stay a function of (config, seed), while a manifest's
// whole point is to say when and from which tree a run happened.
package runenv

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Info is the captured environment provenance.
type Info struct {
	// CreatedUTC is the capture time in RFC 3339 UTC.
	CreatedUTC string
	// GitRevision is the working tree's HEAD commit, best effort: empty
	// when the binary runs outside a git checkout or git is unavailable.
	GitRevision string
	// NumCPU is the host's logical CPU count. Parallel-engine results
	// (shard-utilization reports, multi-worker wall times) are meaningless
	// without it: a 1-CPU container shows no speedup however many node
	// workers are configured.
	NumCPU int
	// GoMaxProcs is the effective GOMAXPROCS at capture time.
	GoMaxProcs int
}

// Capture reads the environment now.
func Capture() Info {
	return Info{
		CreatedUTC:  time.Now().UTC().Format(time.RFC3339),
		GitRevision: gitRevision(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
