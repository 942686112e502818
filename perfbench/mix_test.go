package main

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	// The generator starts 50 ms late: every request is overdue, and
	// its latency must include the time it waited to be sent.
	start := time.Now().Add(-50 * time.Millisecond)
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	lat, late := openLoop(start, due, func(int) { time.Sleep(5 * time.Millisecond) })
	for k, l := range lat {
		if want := 50*time.Millisecond - due[k] + 5*time.Millisecond; l < want {
			t.Errorf("request %d latency %v, want at least %v from its due time", k, l, want)
		}
	}
	if late < 30*time.Millisecond {
		t.Errorf("generator lateness %v, want at least 30ms", late)
	}
}

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	// Request 0 holds the system for 30 ms; request 1, sent on time
	// 1 ms later, waits behind it. Its latency shows the stall.
	var mu sync.Mutex
	held := make(chan struct{})
	do := func(k int) {
		if k == 0 {
			mu.Lock()
			close(held)
			time.Sleep(30 * time.Millisecond)
			mu.Unlock()
			return
		}
		<-held
		mu.Lock()
		mu.Unlock()
	}
	lat, _ := openLoop(time.Now(), []time.Duration{0, time.Millisecond}, do)
	if lat[1] < 25*time.Millisecond {
		t.Errorf("request 1 latency %v, want the ~29 ms it queued behind request 0", lat[1])
	}
}

func TestArrivalsAreSeededPoisson(t *testing.T) {
	a := arrivals(7, 28, 800, 10*time.Second)
	if b := arrivals(7, 28, 800, 10*time.Second); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := arrivals(8, 28, 800, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 8000 expected arrivals; a Poisson count is within 5 sigma.
	if n := len(a); n < 7550 || n > 8450 {
		t.Errorf("%d arrivals in 10s at 800/s", n)
	}
	for k := 1; k < len(a); k++ {
		if a[k].due < a[k-1].due || a[k].class < 0 || a[k].class >= 28 {
			t.Fatalf("arrival %d out of order or class out of range: %+v", k, a[k])
		}
	}
}
