// Command perfbench is bruckv's end-to-end benchmark. It runs one
// named workload, checks every op's output against an oracle, and
// prints the end-to-end metrics by name with their units; with
// --trace 1 it instead reports per-layer metrics from spans around its
// own calls into each layer, the layers' counters, and a CPU profile.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fixpoint --seed 1 --seconds 20 --trace 0
//
// Workloads: fixpoint (TC and kCFA fixpoints over two-phase Bruck),
// a2av-scale (Alltoallv and persistent Start at P=512 on the events
// executor), bruckd-mix (open-loop job stream through bruckd's HTTP
// handler). The last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// instance is one set-up workload, ready to measure.
type instance interface {
	// run measures ops for d, and for closed loops until at least
	// minOps were attempted, recording each in rec. lay and tr are nil
	// unless the run is traced. It returns the wall time of the run.
	run(d time.Duration, minOps int, rec *recorder, lay *layers, tr *tracer) time.Duration
	// virtualMsPerOp is the simulated time per op, a function of the
	// seed alone.
	virtualMsPerOp() float64
	params() map[string]any
	close()
}

var workloads = map[string]func(seed uint64) (instance, error){
	"fixpoint":   setupFixpoint,
	"a2av-scale": setupA2av,
	"bruckd-mix": setupMix,
}

const (
	// An untraced run sets the workload up in two phases, one before
	// and one after the timed phase; each phase sets it up at least
	// phaseSetups times and until its set-ups took phaseBudget, each
	// after a garbage collection. setup_s is the median of all of them:
	// many short set-ups at two times keep one slow stretch of the host
	// from moving it.
	phaseSetups = 3
	phaseBudget = 1250 * time.Millisecond
	// minClosedOps keeps p90 supported (ten ops beyond it) on the
	// closed-loop workloads.
	minClosedOps = 100
	// maxStretch bounds how far minClosedOps may stretch a run, so that
	// slow ops cannot keep the process past its time limit.
	maxStretch = 3
	// tracedSlices is how many slices a traced run alternates between
	// untraced (even) and traced (odd); opBaseStride keeps the op ids
	// of successive slices apart in the span file.
	tracedSlices = 6
	opBaseStride = 1_000_000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fixpoint, a2av-scale or bruckd-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and CPU profiles of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fixpoint|a2av-scale|bruckd-mix, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	d := time.Duration(*seconds) * time.Second

	var setupS []float64
	inst, err := setUp(setup, *seed, &setupS)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setting up %s: %v\n", *name, err)
		return 1
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	fp := newFingerprint(*name, *seed, *seconds, *trace == 1, inst.params())

	var res result
	if *trace == 0 {
		res, err = measure(inst, d, fp, stdout, func() (float64, error) {
			inst.close()
			inst = nil
			last, err := setUp(setup, *seed, &setupS)
			if err == nil {
				last.close()
			}
			return median(setupS), err
		})
	} else {
		res, err = measureTraced(inst, *name, d, fp, *outDir, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setUp runs one phase of set-ups, appending each one's time to
// times, and returns the last instance; it closes the others.
func setUp(setup func(uint64) (instance, error), seed uint64, times *[]float64) (instance, error) {
	var inst instance
	var spent time.Duration
	for n := 0; n < phaseSetups || spent < phaseBudget; n++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = setup(seed); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		spent += took
		*times = append(*times, took.Seconds())
	}
	return inst, nil
}

// measure runs the untraced, end-to-end measurement. setupAfter runs
// the second phase of set-ups once inst is no longer needed and
// returns setup_s.
func measure(inst instance, d time.Duration, fp fingerprint, out io.Writer, setupAfter func() (float64, error)) (result, error) {
	rec := &recorder{}
	runtime.GC()
	hp := startHeapPeak(5 * time.Millisecond)
	elapsed := inst.run(d, minClosedOps, rec, nil, nil)
	peak := hp.Stop()
	virtualMs := inst.virtualMsPerOp()
	setupS, err := setupAfter()
	if err != nil {
		return result{}, fmt.Errorf("setting up after the timed phase: %w", err)
	}

	ops := rec.records()
	lat := latencies(ops)
	n := len(lat)
	res, fails := tally(ops)

	// A failed op is +Inf in the percentiles; a percentile that lands
	// on one is reported as the op deadline, the least a failed op
	// costs its caller.
	deadlineMs := opDeadline(fp.Params)
	pct := func(p float64) float64 {
		v := percentile(lat, p)
		if math.IsInf(v, 1) {
			return deadlineMs
		}
		return v
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	set("setup_s", setupS, "s")
	set("op_p50_ms", pct(50), "ms")
	set("ops_per_s", float64(fails[okOp])/elapsed.Seconds(), "1/s")
	set("peak_heap_mb", float64(peak)/(1<<20), "MB")
	set("virtual_ms_per_op", virtualMs, "ms")

	fmt.Fprintf(out, "fingerprint %s\n", mustJSON(fp))
	fmt.Fprintf(out, "ops %d in %.3fs; failures:", n, elapsed.Seconds())
	for k := failDeadlock; k < numFailKinds; k++ {
		fmt.Fprintf(out, " %s=%d", failNames[k], fails[k])
	}
	fmt.Fprintln(out)
	for _, name := range []string{"setup_s", "op_p50_ms"} {
		printMetric(out, name, res.Metrics[name])
	}
	// The tails are printed but not reported: their run-to-run spread
	// on a shared host is wider than a bound can hold.
	printMetric(out, "op_p90_ms", metric{pct(90), "ms"})
	if supported(n, 99) {
		printMetric(out, "op_p99_ms", metric{pct(99), "ms"})
	} else {
		fmt.Fprintf(out, "%-32s n/a (%d ops leave fewer than 10 beyond p99)\n", "op_p99_ms", n)
	}
	if p, ok := highestTail(n, 90, 99, 99.9); ok {
		fmt.Fprintf(out, "%-32s p%g\n", "highest_tail", p)
	}
	for _, name := range []string{"ops_per_s", "peak_heap_mb", "virtual_ms_per_op"} {
		printMetric(out, name, res.Metrics[name])
	}
	printMetric(out, "failed_share", metric{float64(res.Failed) / float64(max(n, 1)), "ratio"})
	return res, nil
}

// measureTraced alternates untraced and traced slices of the run, so
// that drift in host speed falls on both alike: the untraced slices
// are the reference for the tracing overhead, the traced ones record
// spans, layer counters and a CPU profile and give the per-layer
// metrics. Spans and the profiles are written to outDir.
func measureTraced(inst instance, name string, d time.Duration, fp fingerprint, outDir string, out, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, fp.Seed))
	t := tracedRun{workload: name, lay: newLayers(), cpu: map[string]int64{}}
	tr := newTracer()
	var samples int64
	for i := 0; i < tracedSlices; i++ {
		rec := &recorder{}
		if i%2 == 0 {
			inst.run(d/tracedSlices, 0, rec, nil, nil)
			t.untraced = append(t.untraced, rec.records()...)
			continue
		}
		tr.opBase = i * opBaseStride
		var prof bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("starting CPU profile: %w", err)
		}
		inst.run(d/tracedSlices, 0, rec, t.lay, tr)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		t.mem.add(&m0, &m1)
		t.traced = append(t.traced, rec.records()...)
		path := fmt.Sprintf("%s.slice%d.pprof", base, i)
		if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
			return result{}, err
		}
		w, n, err := cpuWeights(path)
		if err != nil {
			return result{}, err
		}
		for l, v := range w {
			t.cpu[l] += v
		}
		samples += n
	}
	t.spans = tr.snapshot()
	if err := writeSpansFile(base+".spans.json", fp, t.spans); err != nil {
		return result{}, err
	}

	res, _ := tally(append(append([]opRecord(nil), t.untraced...), t.traced...))
	vals := perLayer(t)
	if n := vals["buffer.pool_outstanding"]; n != 0 {
		// Every clean run must return each payload buffer to the pool.
		fmt.Fprintf(stderr, "perfbench: WRONG: %g payload buffers outstanding after the traced runs\n", n)
		res.Correct = false
	}
	fmt.Fprintf(out, "fingerprint %s\n", mustJSON(fp))
	fmt.Fprintf(out, "traced ops %d, untraced ops %d, cpu samples %d, spans %d -> %s.{spans.json,slice*.pprof}\n",
		len(t.traced), len(t.untraced), samples, len(t.spans), base)
	for _, pl := range perLayerNames {
		v := vals[pl.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
		printMetric(out, pl.name, res.Metrics[pl.name])
	}
	return res, nil
}

// tally starts a result from the ops' outcomes: a run is correct when
// no op disagreed with its oracle. It also returns the count per kind.
func tally(ops []opRecord) (result, [numFailKinds]int) {
	var fails [numFailKinds]int
	res := result{Attempted: len(ops), Metrics: map[string]metric{}}
	for _, op := range ops {
		fails[op.fail]++
		if op.fail != okOp {
			res.Failed++
		}
	}
	res.Correct = fails[failWrong] == 0
	return res, fails
}

func writeSpansFile(path string, fp fingerprint, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, fp, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printMetric(out io.Writer, name string, m metric) {
	fmt.Fprintf(out, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// opDeadline returns the op deadline in ms from a workload's params.
func opDeadline(params map[string]any) float64 {
	s, _ := params["op_deadline_s"].(float64)
	return s * 1e3
}

// closedLoop runs op(i) back to back from one client until d has
// passed and at least minOps ops were attempted, but starts no op after
// maxStretch*d. prepare, when not nil, builds op i's inputs outside its
// timed interval.
func closedLoop(d time.Duration, minOps int, rec *recorder, prepare func(i int), op func(i int) error) time.Duration {
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); el >= maxStretch*d || (el >= d && i >= minOps) {
			break
		}
		if prepare != nil {
			prepare(i)
		}
		t0 := time.Now()
		err := op(i)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		kind := classify(err)
		if kind != okOp {
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed (%s): %s\n", i, failNames[kind], firstLine(err))
		}
		rec.add(opRecord{index: i, ms: ms, fail: kind})
	}
	return time.Since(start)
}

func firstLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}
