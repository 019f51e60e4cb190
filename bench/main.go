// Command bench is the repository's benchmark: five workloads across the
// simulation, origin and fleet-telemetry paths, each checked for
// correctness, plus a traced run that gives the per-layer budget. See
// README.md in this directory.
//
//	bench run     [-workload W] [-seed N] [-seconds S] [-quick] [-runs N] [-out FILE]
//	bench trace   [-seed N] [-seconds S] [-quick]
//	bench compare A.json B.json
//	bench repeat  [-sets 2] [-runs 3] [-seed N] [-seconds S] [-quick]
package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	// Daemons and scratch directories go away on every exit path,
	// including a signal.
	defer runCleanups()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	if len(os.Args) < 2 {
		usage()
		return 2
	}
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		return cmdRun(args, 0)
	case "trace":
		return cmdRun(args, 1)
	case "compare":
		return cmdCompare(args)
	case "repeat":
		return cmdRepeat(args)
	case "manifest":
		// Prints BENCHMARK.json as the benchmark's tables define it.
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		os.Stdout.Write(data)
		return 0
	default:
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run     [-workload W] [-seed N] [-seconds S] [-quick] [-runs N] [-out FILE]
  bench trace   [-seed N] [-seconds S] [-quick]
  bench compare A.json B.json
  bench repeat  [-sets 2] [-runs 3] [-seed N] [-seconds S] [-quick]
  bench manifest                                  (prints BENCHMARK.json from the benchmark's tables)`)
}
