package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// syntheticTraces is `go tool pprof -traces -sample_index=samples`
// output for a small profile, header included.
const syntheticTraces = `File: perfbench
Type: samples
Duration: 1s, Total samples = 100
-----------+-------------------------------------------------------
        30   runtime.memmove
             bruckv/internal/mpi.(*Proc).Send
             main.main
-----------+-------------------------------------------------------
        10   bruckv/internal/buffer.(*Pool).Get (inline)
             bruckv/internal/mpi.(*Proc).Send
             runtime.goexit
-----------+-------------------------------------------------------
        20   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
        10   runtime.futex
             runtime.mstart
-----------+-------------------------------------------------------
        10   encoding/json.Marshal
             main.(*bruckdMix).submit
-----------+-------------------------------------------------------
        15   bruckv.(*Comm).Alltoallv (inline)
             bruckv/internal/service.runOnce
-----------+-------------------------------------------------------
         5   bruckv/internal/kcfa.(*analyzer).step
-----------+-------------------------------------------------------
`

func TestCPUSharesAttributeInnermostBruckvFrame(t *testing.T) {
	// runtime code called from the transport belongs to mpi; an inlined
	// pool call is the innermost frame of its stack; a GC worker's
	// samples are gc.
	weight, n, err := parseTraces(strings.NewReader(syntheticTraces))
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("parsed %d samples, want 100", n)
	}
	shares := cpuShares(weight)
	want := map[string]float64{"mpi": 0.30, "buffer": 0.10, "gc": 0.20, "runtime": 0.10,
		"bench": 0.10, "coll": 0.15, "app": 0.05, "service": 0}
	for layer, w := range want {
		if math.Abs(shares[layer]-w) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", layer, shares[layer], w)
		}
	}
}

func TestParseTracesRejectsMalformedCount(t *testing.T) {
	in := traceSeparator + "\n      lots   main.main\n"
	if _, _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Error("a stack line without a sample count parsed")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bruckv/internal/mpi.(*Proc).Send":        "bruckv/internal/mpi",
		"bruckv.(*Comm).Alltoallv":                "bruckv",
		"bruckv/internal/coll.run[...].func1":     "bruckv/internal/coll",
		"main.main":                               "main",
		"runtime.gcBgMarkWorker":                  "runtime",
		"net/http.(*ServeMux).ServeHTTP":          "net/http",
		"bruckv/internal/service.sortedKeys[...]": "bruckv/internal/service",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestCPUSharesOfRuntimeProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	weight, n, err := cpuWeights(path)
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(weight)
	if n == 0 {
		t.Skip("no CPU samples collected")
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("a profile of a spinning test function gave cpu.bench = %v: %v", shares["bench"], shares)
	}
}
