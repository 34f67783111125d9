// Command perfbench-harness is the in-process half of the depscope
// benchmark (perfbench/run.py is the other half). Each subcommand runs in a
// fresh process, because depscope's intern/memo tables and resolver caches
// are process-global: a second run in the same process would be warm, while
// every depscope user pays the cold cost.
//
//	harness job          -workload paper-100k|stream-chains-100k -seed N -trace 0|1 -t0 NS [-setup-only]
//	harness load         -workload serve-read-20k|serve-write-20k -addr URL -pid PID -scale N -seed N -seconds S
//	harness serve-layers -scale N -seed N
//
// Every subcommand prints one JSON object on stdout; run.py combines them
// into the benchmark's result line. The harness calls depscope only through
// the exported APIs of its packages.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: harness job|load|serve-layers [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "job":
		err = jobMain(os.Args[2:])
	case "load":
		err = loadMain(os.Args[2:])
	case "serve-layers":
		err = serveLayersMain(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		os.Exit(1)
	}
}

// result is what every subcommand prints: counts of attempted and failed
// operations, the failed checks by name, and named metric values.
type result struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Metrics   map[string]float64 `json:"metrics"`
	Digests   map[string]string  `json:"digests,omitempty"`
	// ReadWindows is the read p50 (ms) of each window of the reference
	// step; run.py pools them over a run's servers.
	ReadWindows []float64   `json:"read_windows,omitempty"`
	Ledger      []ledgerRow `json:"ledger,omitempty"`
}

func newResult() *result {
	return &result{Metrics: make(map[string]float64), Digests: make(map[string]string), Problems: []string{}}
}

// check counts one operation and records it as failed when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Problems) < 20 {
			r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) print() error {
	return json.NewEncoder(os.Stdout).Encode(r)
}

// procStatusKB reads one "<key>: N kB" line of /proc/<pid>/status.
func procStatusKB(pid, key string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", key, pid)
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}
