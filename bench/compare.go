package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x metric row.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
)

func readResults(path string) (results, error) {
	var r results
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the quartiles as a share of the median.
func spread(m metricRun) float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Median
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worseBy(better, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict applies the metric's bound: b regressed when its median is worse
// than a's by more than the bound, improved when better by more than the
// bound. Where either side's rep spread is wider than the bound the row is
// unresolved, unless every rep of b reads better than every rep of a.
func verdict(a, b metricRun) string {
	if allBetter(a.Better, a.Values, b.Values) && -worseBy(a.Better, a.Median, b.Median) > a.Bound {
		return improved
	}
	w := worseBy(a.Better, a.Median, b.Median)
	if w <= a.Bound && -w <= a.Bound {
		return unchanged
	}
	if spread(a) > a.Bound || spread(b) > a.Bound {
		return unresolved
	}
	if w > 0 {
		return regressed
	}
	return improved
}

// compareFiles prints one row per workload x end-to-end metric and returns 1
// when any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var both [2]results
	for i, path := range []string{pathA, pathB} {
		r, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		both[i] = r
	}
	return compare(both[0], both[1], stdout)
}

func compare(a, b results, w io.Writer) int {
	fmt.Fprintf(w, "A: revision %.12s, %d CPUs, seed %d    B: revision %.12s, %d CPUs, seed %d\n",
		a.Host.GitRevision, a.Host.NumCPU, a.Seed, b.Host.GitRevision, b.Host.NumCPU, b.Seed)
	byName := map[string]outcome{}
	for _, o := range b.Workloads {
		byName[o.Name] = o
	}
	code := 0
	for _, oa := range a.Workloads {
		ob, ok := byName[oa.Name]
		if !ok {
			fmt.Fprintf(w, "%s: only in A\n", oa.Name)
			continue
		}
		same := "equal"
		if oa.SimDigest != ob.SimDigest {
			same = "different"
		}
		fmt.Fprintf(w, "%s: sim_digest %s; failed %d/%d vs %d/%d\n", oa.Name, same, oa.Failed, oa.Attempted, ob.Failed, ob.Attempted)
		for _, d := range endToEnd {
			ma, mb := oa.Metrics[d.Name], ob.Metrics[d.Name]
			v := verdict(ma, mb)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "  %-30s A %12.6g [%.6g, %.6g]  B %12.6g [%.6g, %.6g] %-16s %+7.2f%% (bound %g%%) %s\n",
				d.Name, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3, d.Unit, -100*worseBy(d.Better, ma.Median, mb.Median), 100*ma.Bound, v)
		}
	}
	return code
}
