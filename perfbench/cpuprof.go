package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// CPU-profile attribution. The saved profile is printed as text by the
// Go toolchain's pprof (`go tool pprof -traces`), one block per
// distinct stack, so the benchmark adds no module dependency.

// cpuLayers are the shares reported as cpu.<layer>, in print order.
var cpuLayers = []string{"app", "coll", "mpi", "buffer", "service", "bench", "gc", "runtime"}

// layerOfPackage maps a bruckv package to the layer that owns it.
var layerOfPackage = map[string]string{
	"bruckv/internal/ra":       "app",
	"bruckv/internal/graph":    "app",
	"bruckv/internal/kcfa":     "app",
	"bruckv":                   "coll",
	"bruckv/internal/coll":     "coll",
	"bruckv/internal/datatype": "coll",
	"bruckv/internal/dist":     "coll",
	"bruckv/internal/machine":  "coll",
	"bruckv/internal/stats":    "coll",
	"bruckv/internal/bench":    "coll",
	"bruckv/internal/mpi":      "mpi",
	"bruckv/internal/fault":    "mpi",
	"bruckv/internal/trace":    "mpi",
	"bruckv/internal/buffer":   "buffer",
	"bruckv/internal/service":  "service",
	"main":                     "bench",
	"bruckv/perfbench":         "bench", // the benchmark's path under go test
}

// gcRoots are the runtime's background GC goroutines' entry points.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// packageOf returns the import path of a pprof function name such as
// "bruckv/internal/mpi.(*Proc).Send" or "main.main".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfStack attributes one sample, given its frames innermost
// first: to the layer of the innermost frame in a bruckv package or in
// the benchmark itself, else to gc when a GC worker is on the stack,
// else to runtime.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if l, ok := layerOfPackage[packageOf(fn)]; ok {
			return l
		}
	}
	for _, fn := range frames {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	return "runtime"
}

// cpuWeights returns each layer's number of CPU samples in the
// profile saved at path, and the total number of samples.
func cpuWeights(path string) (map[string]int64, int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(bytes.NewReader(out))
}

// traceSeparator starts each stack in `go tool pprof -traces` output.
const traceSeparator = "-----------+"

// parseTraces attributes the stacks printed by `go tool pprof -traces
// -sample_index=samples`. After the header, each block starts with a
// separator line; its first line holds the sample count and the
// innermost frame, and each further line one caller, with " (inline)"
// after frames inlined into their caller.
func parseTraces(r io.Reader) (map[string]int64, int64, error) {
	weight := map[string]int64{}
	var total, count int64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			weight[layerOfStack(frames)] += count
			total += count
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBlock, first := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			flush()
			inBlock, first = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		if first {
			first = false
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad stack line %q", line)
			}
			count = n
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	return weight, total, sc.Err()
}

// cpuShares turns per-layer CPU time into shares of the total.
func cpuShares(weight map[string]int64) map[string]float64 {
	var total int64
	for _, v := range weight {
		total += v
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(weight[l]) / float64(total)
		}
	}
	return shares
}
