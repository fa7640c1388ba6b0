// Command vcesim regenerates the evaluation: it runs every experiment in
// DESIGN.md §11 (or a -run subset) and prints the resulting tables and shape
// notes. -md emits the same output as Markdown.
//
// Usage:
//
//	vcesim            # run everything, plain text
//	vcesim -run E7    # one experiment
//	vcesim -md        # markdown output
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vce/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vcesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only = fs.String("run", "", "run only the experiment with this ID (e.g. E7)")
		md   = fs.Bool("md", false, "emit Markdown")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	runners := experiments.All()
	if *only != "" {
		var ids []string
		var picked []experiments.Runner
		for _, r := range runners {
			ids = append(ids, r.ID)
			if r.ID == *only {
				picked = append(picked, r)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(stderr, "vcesim: unknown experiment %q; known: %s\n", *only, strings.Join(ids, " "))
			return 1
		}
		runners = picked
	}
	failed := 0
	for _, runner := range runners {
		start := time.Now()
		res, err := runner.Run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "%s FAILED: %v\n", runner.ID, err)
			failed++
			continue
		}
		if *md {
			printMarkdown(stdout, res, elapsed)
		} else {
			fmt.Fprintf(stdout, "=== %s: %s (%v)\n", res.ID, res.Title, elapsed.Round(time.Millisecond))
			fmt.Fprintln(stdout, res.Table.String())
			for _, n := range res.Notes {
				fmt.Fprintf(stdout, "  => %s\n", n)
			}
			fmt.Fprintln(stdout)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}

func printMarkdown(w io.Writer, res *experiments.Result, elapsed time.Duration) {
	fmt.Fprintf(w, "### %s — %s\n\n", res.ID, res.Title)
	fmt.Fprint(w, res.Table.Markdown())
	fmt.Fprintln(w)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "**Measured:** %s\n\n", n)
	}
	fmt.Fprintf(w, "_(regenerated in %v)_\n\n", elapsed.Round(time.Millisecond))
}
