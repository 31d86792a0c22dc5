// Command lvmlint runs the repository's custom static-analysis suite (see
// internal/lint): the per-package analyzers (fixedq, addrtypes, nondeterm,
// floatfree, nopanic, sortedfree) and the whole-program ones built on the
// cross-package call graph (hotalloc, syncsafe, snapshotpure).
//
//	go run ./cmd/lvmlint ./...          # whole module
//	go run ./cmd/lvmlint ./internal/core
//	go run ./cmd/lvmlint -list          # analyzer names and one-line docs
//	go run ./cmd/lvmlint -doc           # analyzer docs as markdown
//
// Diagnostics print one per line as file:line:col: message (analyzer).
// Exit status is 0 when the packages are clean, 1 when violations are
// found and 2 when the packages cannot be loaded. Legitimate exceptions
// are suppressed with a //lint:allow <analyzer> <reason> comment on the
// flagged line or the line above.
package main

import (
	"flag"
	"fmt"
	"os"

	"lvm/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	doc := flag.Bool("doc", false, "print analyzer documentation as markdown and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lvmlint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *doc {
		printDoc()
		return
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvmlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvmlint:", err)
		os.Exit(2)
	}
	diags := lint.RunSuite(pkgs, lint.Analyzers())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lvmlint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// printDoc renders the analyzer docs as the markdown the README's
// "Static analysis" section is regenerated from (`lvmlint -doc`).
func printDoc() {
	fmt.Println("<!-- Generated by `go run ./cmd/lvmlint -doc`; do not edit by hand. -->")
	for _, a := range lint.Analyzers() {
		fmt.Printf("\n### `%s`\n\n%s\n", a.Name, a.Doc)
	}
}
