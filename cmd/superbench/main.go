// Command superbench regenerates the paper's tables and figures from the
// systems in this repository; it is not bench/, the repository's
// performance benchmark (BENCHMARK.json, `bash bench/run.sh`).
//
// Usage:
//
//	superbench -list
//	superbench -exp fig10
//	superbench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"superoffload/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (e.g. fig10, table2) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			fmt.Println("  ", n)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with: superbench -exp <id>   (or -exp all)")
		}
		return
	}

	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = experiments.Names()
	}
	for _, id := range ids {
		out, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "superbench:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
