// Command vcesim regenerates the evaluation: it runs every experiment in
// DESIGN.md §11 (or a -run subset) and prints the resulting tables and shape
// notes. -md emits Markdown suitable for EXPERIMENTS.md.
//
// Usage:
//
//	vcesim            # run everything, plain text
//	vcesim -run E7    # one experiment
//	vcesim -md        # markdown output
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vce/internal/experiments"
)

func main() {
	var (
		only = flag.String("run", "", "run only the experiment with this ID (e.g. E7)")
		md   = flag.Bool("md", false, "emit Markdown")
	)
	flag.Parse()
	failed := 0
	for _, runner := range experiments.All() {
		if *only != "" && runner.ID != *only {
			continue
		}
		start := time.Now()
		res, err := runner.Run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", runner.ID, err)
			failed++
			continue
		}
		if *md {
			printMarkdown(res, elapsed)
		} else {
			fmt.Printf("=== %s: %s (%v)\n", res.ID, res.Title, elapsed.Round(time.Millisecond))
			fmt.Println(res.Table.String())
			for _, n := range res.Notes {
				fmt.Printf("  => %s\n", n)
			}
			fmt.Println()
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

func printMarkdown(res *experiments.Result, elapsed time.Duration) {
	fmt.Printf("### %s — %s\n\n", res.ID, res.Title)
	fmt.Print(res.Table.Markdown())
	fmt.Println()
	for _, n := range res.Notes {
		fmt.Printf("**Measured:** %s\n\n", n)
	}
	fmt.Printf("_(regenerated in %v)_\n\n", elapsed.Round(time.Millisecond))
}
