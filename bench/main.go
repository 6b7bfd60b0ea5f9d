// Command bench is the repository's benchmark: six supertrain-shaped
// workloads driven through the public facade, end-to-end metrics from an
// untraced pass and a per-layer ledger from a traced one. README.md in
// this directory says what each number means.
//
//	bash bench/run.sh --workload dense-1r --seed 1 --seconds 8 --trace 0    # one pass, as the driver runs it
//	bash bench/run.sh                                                       # the whole suite, results in bench/out/
//	bash bench/run.sh -compare A.json B.json                                # two suites side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run one pass of this workload and print its result line (empty: the whole suite)")
	seed := flag.Uint64("seed", 42, "the only workload input: the model seed; the corpus seed is seed+1")
	seconds := flag.Float64("seconds", 8, "length of a pass's timed loop")
	steps := flag.Int("steps", 0, "run exactly this many timed steps instead of -seconds, so counts repeat exactly")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	quick := flag.Bool("quick", false, "self-test sizing: 10 timed steps, one set-up, short probes")
	runs := flag.Int("runs", 1, "suite: untraced runs per workload (4 or more give -compare a spread)")
	doCompare := flag.Bool("compare", false, "compare two suite results files: -compare A.json B.json")
	dir := flag.String("dir", ".bench_build/tmp", "scratch directory for flash files; what a run creates there it removes")
	out := flag.String("out", "bench/out", "directory for traces and the suite's results.json")
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *trace != 0 && *trace != 1 || *runs < 1 || *seconds <= 0 || *steps != 0 && *steps < timedWindows || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	// One client, closed loop. Four simulated ranks on two cores is the
	// situation the multi-rank rows are read in; letting a bigger
	// machine spread them out would change what those rows measure.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	fmt.Println(newHeader())

	if *quick && *steps == 0 {
		*steps = 10
	}
	if *name == "" {
		return runSuite(suiteConfig{
			seed: *seed, seconds: *seconds, steps: *steps, quick: *quick, runs: *runs, dir: *dir, out: *out,
		}, os.Stdout)
	}

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rep, err := runPass(passConfig{
		w: w, seed: *seed, seconds: *seconds, steps: *steps, trace: *trace == 1, quick: *quick, dir: *dir, out: *out,
	}, os.Stdout)
	if err != nil {
		// No result line: the benchmark itself could not run.
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
