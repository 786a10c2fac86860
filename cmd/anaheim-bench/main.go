// Command anaheim-bench regenerates the Anaheim paper's evaluation tables
// and figures on the simulation stack. (Speed is measured by the repo
// benchmark, `bash benchmark/run.sh`, not here.)
//
// Usage:
//
//	anaheim-bench -exp fig8        # one experiment
//	anaheim-bench -exp fig8 -csv   # ...as CSV instead of an aligned table
//	anaheim-bench -all             # everything
//	anaheim-bench -list            # available experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/anaheim-sim/anaheim"
)

// run is the testable body of main: parse args, run experiments, print.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("anaheim-bench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment id (see -list)")
	all := fs.Bool("all", false, "run every experiment")
	list := fs.Bool("list", false, "list experiment ids")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	experiment := anaheim.RunExperiment
	if *csv {
		experiment = anaheim.RunExperimentCSV
	}

	switch {
	case *list:
		fmt.Fprintln(out, strings.Join(anaheim.ExperimentIDs(), "\n"))
	case *all:
		for _, id := range anaheim.ExperimentIDs() {
			table, err := experiment(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "=== %s ===\n%s\n", id, table)
		}
	case *exp != "":
		table, err := experiment(*exp)
		if err != nil {
			return err
		}
		fmt.Fprint(out, table)
	default:
		fs.Usage()
		return errors.New("anaheim-bench: one of -exp, -all or -list is required")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
