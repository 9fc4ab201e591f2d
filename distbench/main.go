// Command distbench is the end-to-end and per-layer benchmark of distlapd.
//
// It drives an in-process distlapd (service.New(...).Handler(), called
// through ServeHTTP: no sockets) with one seeded workload from closed-loop
// client goroutines, checks every answer with a local oracle, cross-checks
// the server's own /metrics counters against its tallies, and prints one
// JSON result object as the last line of standard output.
//
//	distbench --workload grid-solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run replays every request one layer down through the program's
// public functions and reports per-layer metrics instead; the spans it
// recorded are written to .bench_build/spans-<workload>-<seed>.jsonl under
// the working directory. README.md describes the workloads and every
// metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and writes the result. It
// returns the process exit code: 0 for a completed run whose outputs were
// all correct, 1 for a failed or incorrect run, 2 for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; every input is drawn from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "distbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(w, options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		log:      stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "distbench:", err)
		return 1
	}
	if *trace == 1 {
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(stderr, "distbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "distbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's one-line JSON output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	spans []span // traced runs: every recorded span
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spanDir is where traced runs write their spans, relative to the working
// directory: the build directory run.sh uses, which version control ignores.
const spanDir = ".bench_build"

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
