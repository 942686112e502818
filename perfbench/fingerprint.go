package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine, build and inputs of one run, so
// that a result can be compared only with results it is comparable to.
type fingerprint struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"commit"`
	Dirty      string         `json:"dirty"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

func newFingerprint(workload string, seed uint64, seconds int, trace bool, params map[string]any) fingerprint {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Dirty:      "unknown",
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Params:     params,
	}
	// The go command stamps the VCS state when it builds inside a git
	// checkout; a build from an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				fp.Dirty = s.Value
			}
		}
	}
	return fp
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
