// Command cleansel solves ad-hoc cleaning-selection problems from a JSON
// specification on stdin (or -in file) and reports the chosen values as
// JSON on stdout. The specification format is the cleanseld select wire
// format (internal/server/wire), minus dataset references.
//
// Example specification:
//
//	{
//	  "objects": [
//	    {"name": "crimes/2017", "current": 9125, "cost": 1,
//	     "values": [9025, 9125, 9225], "probs": [0.25, 0.5, 0.25]},
//	    {"name": "crimes/2018", "current": 9430, "cost": 1,
//	     "normal": {"mean": 9430, "sigma": 80}}
//	  ],
//	  "claim":  {"name": "orig", "coef": {"1": 1, "0": -1}},
//	  "direction": "higher",
//	  "reference": 300,
//	  "perturbations": [
//	    {"claim": {"name": "p1", "coef": {"0": 1}}, "sensibility": 1}
//	  ],
//	  "measure": "uniqueness",
//	  "goal": "minvar",
//	  "algorithm": "greedy",
//	  "budget": 1.5,
//	  "tau": 10
//	}
//
// Normal value models are discretized wherever a solve needs a discrete
// view (uniqueness, robustness, algorithm best, goal maxpr over mixed
// normal and discrete objects), onto "discretize" points (default 6).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/server/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cleansel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inFlag := fs.String("in", "-", "input file (default stdin)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cleansel [-in spec.json] < spec.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the usage message
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "cleansel: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	r := stdin
	if *inFlag != "-" {
		f, err := os.Open(*inFlag)
		if err != nil {
			fmt.Fprintln(stderr, "cleansel:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	spec, err := wire.DecodeTask(r)
	if err != nil {
		fmt.Fprintln(stderr, "cleansel:", err)
		fs.Usage()
		return 2
	}
	res, err := solve(spec)
	if err != nil {
		fmt.Fprintln(stderr, "cleansel:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "cleansel:", err)
		return 1
	}
	return 0
}

// solve maps the wire task onto the cleansel API and runs the selection.
func solve(spec wire.Task) (wire.Result, error) {
	if spec.DatasetID != "" {
		return wire.Result{}, errors.New("dataset_id requires the cleanseld service; inline the objects instead")
	}
	db, err := wire.BuildDB(spec.Objects)
	if err != nil {
		return wire.Result{}, err
	}
	task, err := spec.BuildTask(db)
	if err != nil {
		return wire.Result{}, err
	}
	res, err := cleansel.Select(task)
	if err != nil {
		return wire.Result{}, err
	}
	return wire.EncodeResult(res), nil
}
