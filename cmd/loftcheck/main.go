// Command loftcheck runs the repo's static analyzer (internal/lint) over the
// module: determinism, which keeps wall clocks, global RNGs, environment
// reads and order-leaking map iteration out of the simulation packages.
//
// Usage:
//
//	loftcheck [flags] [packages]
//
// Packages default to ./... and are resolved by the go tool relative to the
// module root (located by walking up from -C, default the working
// directory).
//
// Exit codes: 0 — clean; 1 — diagnostics found (or, with -strict,
// suppressions present); 2 — the analysis itself failed to run.
package main

import (
	"flag"
	"fmt"
	"os"

	"loft/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("loftcheck", flag.ContinueOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit diagnostics as a JSON document instead of file:line:col text")
		list    = fs.Bool("list", false, "list the analyzers and exit")
		strict  = fs.Bool("strict", false, "also fail when //lint:ignore suppressions are present")
		dir     = fs.String("C", "", "directory to locate the module from (default: working directory)")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: loftcheck [flags] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	res, err := lint.Run(lint.Config{
		Patterns: fs.Args(),
		Dir:      *dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loftcheck: %v\n", err)
		return 2
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, res); err != nil {
			fmt.Fprintf(os.Stderr, "loftcheck: %v\n", err)
			return 2
		}
	} else {
		lint.WriteText(os.Stdout, res)
	}

	if !res.Clean() {
		return 1
	}
	if *strict && len(res.Suppressed) > 0 {
		if !*jsonOut {
			fmt.Printf("loftcheck: -strict: %d suppression(s) present\n", len(res.Suppressed))
		}
		return 1
	}
	return 0
}
