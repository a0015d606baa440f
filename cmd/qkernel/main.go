// Command qkernel is the end-to-end tool around the quantum-kernel
// framework. It has three subcommands:
//
//	qkernel train [flags]                         — train through the core
//	                                                pipeline and persist the
//	                                                model (-out model.bin).
//	qkernel serve [flags]                         — load persisted models and
//	                                                serve predictions over HTTP
//	                                                with micro-batched kernel rows.
//	qkernel repro <artifact> [-paper] [-csv path] — reproduce one of the
//	                                                paper's figures or tables
//	                                                (fig5 … table3, truncnoise).
//
// `qkernel <subcommand> -h` lists a subcommand's flags.
//
// train's -transport selects the wire behind the distribution strategies:
// chan (in-process channels, the default), sim (the chan wire with a
// per-message latency/bandwidth/jitter cost model — tune it with
// -wire-latency-us, -wire-mbps and -wire-jitter-us) or tcp (real loopback TCP
// sockets). The kernel matrices are identical on every transport; only the
// communication accounting changes.
//
// Every shard receive in a distributed exchange is bounded by a deadline
// (dist.DefaultDeadline). A shard that never arrives, or a peer whose
// connection breaks, fails the run with a typed error naming the rank.
//
// With -data, train loads samples from CSV (label column selectable; the
// Kaggle Elliptic export works directly) instead of the synthetic generator.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to a subcommand and returns the process exit status: 2
// with the usage text when no known subcommand is named.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "train":
			return runTrain(args[1:])
		case "serve":
			return runServe(args[1:])
		case "repro":
			return runRepro(args[1:], stdout, stderr)
		case "help", "-h", "-help", "--help":
			fmt.Fprint(stdout, usage)
			return 0
		}
		fmt.Fprintf(stderr, "qkernel: unknown subcommand %q\n", args[0])
	}
	fmt.Fprint(stderr, usage)
	return 2
}

const usage = `usage: qkernel <train | serve | repro> ...
       qkernel train [flags]                          train and persist a model ('qkernel train -h')
       qkernel serve [flags]                          serve persisted models over HTTP ('qkernel serve -h')
       qkernel repro <artifact> [-paper] [-csv path]  reproduce a figure or table of the paper ('qkernel repro -h')
`

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "qkernel:", err)
	return 1
}
