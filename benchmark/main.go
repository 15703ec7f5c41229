// Command benchmark is the repository's benchmark: a single process
// that drives the real mail components over real TCP (and the fleet
// control plane on the simulator clock), checks their outputs, and
// prints every metric BENCHMARK.json names.
//
//	go run -C benchmark . -workload send-through -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and what may never be
// configured from here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"

	"partsvc/internal/trace"
)

// benchSpec mirrors BENCHMARK.json, the one place metric names, units
// and regression bounds are written down.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runWorkload runs one workload untraced, or the traced pass with that
// workload selected.
func runWorkload(name string, seed int64, seconds, callers int, traced bool) (*report, error) {
	if !slices.Contains(workloadOrder, name) {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		return tracedPass(name, seed)
	}
	switch name {
	case "send-through":
		return runData(sendThrough, seed, seconds, callers)
	case "mailbox-mix":
		return runData(mailboxMix, seed, seconds, callers)
	case "recover":
		return runRecover(seed, seconds)
	default:
		return runFleetWave(seed, seconds)
	}
}

// commit is stamped by run.sh (-ldflags -X); a plain go run falls back
// to the toolchain's own VCS stamp.
var commit string

func fingerprint() string {
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s; single process, TCP over loopback (127.0.0.1)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// emit prints the run: every listed metric by name with its unit, the
// detail lines, and last the one-line JSON result.
func emit(rep *report, listed []metricSpec, runErr error) bool {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	correct := runErr == nil
	metrics := map[string]jsonMetric{}
	for _, ms := range listed {
		v, ok := rep.values[ms.Name]
		if !ok {
			if runErr == nil {
				fmt.Printf("MISSING %s: the run produced no value for a metric BENCHMARK.json lists\n", ms.Name)
				correct = false
			}
			continue
		}
		fmt.Printf("%-34s %14.6g %s\n", ms.Name, v, ms.Unit)
		metrics[ms.Name] = jsonMetric{v, ms.Unit}
	}
	for _, line := range rep.detail {
		fmt.Println("# " + line)
	}
	if runErr != nil {
		fmt.Println("FAILED:", runErr)
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, rep.failed, metrics})
	if err != nil {
		fmt.Println("FAILED:", err)
		return false
	}
	fmt.Println(string(out))
	return correct
}

// selfcheck runs every workload twice on one seed and compares each
// end-to-end metric against its own bound: the benchmark cannot resolve
// a regression smaller than its run-to-run difference.
func selfcheck(spec *benchSpec, seed int64, seconds, callers int) bool {
	ok := true
	for _, w := range spec.Workloads {
		var reps [2]*report
		for i := range reps {
			rep, err := runWorkload(w.Name, seed, seconds, callers, false)
			if err != nil {
				fmt.Printf("%s run %d FAILED: %v\n", w.Name, i+1, err)
				return false
			}
			reps[i] = rep
		}
		for _, ms := range spec.EndToEnd {
			a, b := reps[0].values[ms.Name], reps[1].values[ms.Name]
			worse := (b - a) / a
			if ms.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > ms.Bound || -worse > ms.Bound {
				verdict, ok = "unresolved", false
			}
			fmt.Printf("%-13s %-16s %12.6g %12.6g %-5s %+6.2f%% (bound %.0f%%) %s\n", w.Name, ms.Name, a, b, ms.Unit, 100*(b-a)/a, 100*ms.Bound, verdict)
		}
		if reps[0].counts != reps[1].counts {
			fmt.Printf("%-13s counts differ between runs: unresolved\n  %s\n  %s\n", w.Name, reps[0].counts, reps[1].counts)
			ok = false
		}
	}
	return ok
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json); empty runs all four, then the traced pass")
	seed := flag.Int64("seed", 1, "seed of the input generator")
	seconds := flag.Int("seconds", 0, "how long a run measures, about; 0 takes run_seconds from BENCHMARK.json")
	traceFlag := flag.String("trace", "0", "1 runs the traced pass and prints the per-layer metrics in place of the end-to-end ones")
	callers := flag.Int("callers", defaultCallers(), "closed-loop callers of the data workloads, one connection each")
	check := flag.Bool("selfcheck", false, "run every workload twice and compare each end-to-end metric against its bound")
	flag.Parse()

	// The harness never enables the repository's own tracer: spans come
	// from the benchmark's transport wrapper, in the traced pass only.
	trace.SetEnabled(false)

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *callers < 1 || *callers > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchmark: %d callers on %d cores: the load generator would compete with the system under test\n", *callers, runtime.NumCPU())
		os.Exit(2)
	}
	if *traceFlag != "0" && *traceFlag != "1" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace takes 0 or 1, not %q\n", *traceFlag)
		os.Exit(2)
	}
	traced := *traceFlag == "1"
	fmt.Println("# host:", fingerprint())

	if *check {
		if !selfcheck(spec, *seed, *seconds, *callers) {
			os.Exit(1)
		}
		return
	}

	type job struct {
		workload string
		traced   bool
	}
	var jobs []job
	if *workload != "" {
		jobs = []job{{*workload, traced}}
	} else {
		for _, w := range spec.Workloads {
			jobs = append(jobs, job{w.Name, false})
		}
		jobs = append(jobs, job{spec.Workloads[0].Name, true})
	}
	allCorrect := true
	for _, j := range jobs {
		fmt.Printf("# workload=%s seed=%d seconds=%d trace=%v\n", j.workload, *seed, *seconds, j.traced)
		rep, err := runWorkload(j.workload, *seed, *seconds, *callers, j.traced)
		if rep == nil {
			rep = newReport()
		}
		listed := spec.EndToEnd
		if j.traced {
			listed = spec.PerLayer
		}
		if !emit(rep, listed, err) {
			allCorrect = false
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}
