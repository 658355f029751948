package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		tail    float64
		beyondN int
	}{
		{10000, 99.9, 9990, 10},
		{1000, 99, 990, 10},
		{999, 95, 950, 49}, // p99 would leave only 9 beyond
		{200, 95, 190, 10},
		{100, 90, 90, 10},
		{40, 75, 30, 10},
		{20, 50, 10, 10},
		{19, 50, 10, 9}, // too few for any tail: falls back to the median
	} {
		s := summarize(seq(tc.n))
		if s.TailPct != tc.pct || s.Tail != tc.tail || s.Beyond != tc.beyondN || s.N != tc.n {
			t.Errorf("n=%d: tail p%g=%g with %d beyond, want p%g=%g with %d beyond",
				tc.n, s.TailPct, s.Tail, s.Beyond, tc.pct, tc.tail, tc.beyondN)
		}
		if s.Beyond < tailBeyond && tc.n >= 20 {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, s.Beyond)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestVisibleMatchesFirstCoveringRound(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	acks := []ack{
		{DS: 0, Version: 3, Due: msd(100)},
		{DS: 0, Version: 4, Due: msd(150)},
		{DS: 1, Version: 2, Due: msd(100)},
		{DS: 1, Version: 9, Due: msd(100)}, // never published
	}
	seen := []sighting{
		// Out of completion order on purpose; and a late read that
		// completed after a newer one but reports an older round.
		{DS: 0, Version: 4, At: msd(700)},
		{DS: 0, Version: 2, At: msd(300)},
		{DS: 0, Version: 3, At: msd(500)},
		{DS: 0, Version: 2, At: msd(650)},
		{DS: 1, Version: 5, At: msd(400)}, // covers version 2 at once
		{DS: 2, Version: 99, At: msd(1)},  // another dataset covers nothing here
	}
	lat, missing := visibleLatencies(acks, seen)
	want := []float64{400, 550, 300}
	if missing != 1 || len(lat) != len(want) {
		t.Fatalf("latencies %v missing %d, want %v missing 1", lat, missing, want)
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("ack %d: visible after %g ms, want %g", i, lat[i], want[i])
		}
	}
}

func TestEtagVersion(t *testing.T) {
	if v, ok := etagVersion(`"stock-0-g3-v17-r5"`); !ok || v != 17 {
		t.Errorf("etagVersion = %d, %t; want 17", v, ok)
	}
	if _, ok := etagVersion(`"weird"`); ok {
		t.Error("unparseable tag accepted")
	}
}

// TestErrorRateCountsRefusals drives a schedule against a server that
// refuses appends with 429 and fails one read with 500: both count as
// failed operations, a 304 does not.
func TestErrorRateCountsRefusals(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case strings.HasSuffix(r.URL.Path, "/truth"):
			w.WriteHeader(http.StatusInternalServerError)
		case r.Header.Get("If-None-Match") != "":
			w.Header().Set("ETag", `"d-g1-v1-r1"`)
			w.WriteHeader(http.StatusNotModified)
		default:
			w.Header().Set("ETag", `"d-g1-v1-r1"`)
			_, _ = w.Write([]byte(`{"pairs":[]}`))
		}
	}))
	defer srv.Close()
	ops := []op{
		{Kind: opAppend, Body: []byte(`{}`)},
		{Due: time.Millisecond, Kind: opCopies, Path: "copies"},
		{Due: 20 * time.Millisecond, Kind: opRevalidate, Path: "copies"},
		{Due: 30 * time.Millisecond, Kind: opTruth, Path: "truth"},
	}
	lr := runSchedule(newClient(2), srv.URL, []string{"d"}, ops, readValidator(0, 0), time.Now())
	if got := lr.failures(); got != 2 {
		t.Fatalf("failures = %d, want 2 (one 429, one 500)", got)
	}
	if lr.Out[0].Status != http.StatusTooManyRequests || lr.Out[2].Status != http.StatusNotModified {
		t.Fatalf("statuses %d, %d", lr.Out[0].Status, lr.Out[2].Status)
	}
	if len(lr.acks()) != 0 {
		t.Error("a refused append was counted as acknowledged")
	}
	if n := len(lr.latencies(func(o op) bool { return o.Kind != opAppend })); n != 2 {
		t.Errorf("%d read latencies, want 2 (the 200 and the 304)", n)
	}
	if len(lr.Wrong) != 0 {
		t.Errorf("unexpected wrong outputs: %v", lr.Wrong)
	}
	if !failedOp(0, http.ErrHandlerTimeout) || failedOp(http.StatusAccepted, nil) {
		t.Error("failedOp misclassifies a transport error or a 202")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "g", Start: 10, End: 40},  // grandchild: not direct
	}
	got := selfTimes(spans, "p")
	if want := ms(100 - 40 - 10); len(got) != 1 || got[0] != want {
		t.Fatalf("self time %v, want %g", got, want)
	}
	if sums := childSums(spans, "p", "c"); sums[0] != ms(30+20+30) {
		t.Fatalf("child sum %v", sums)
	}
}

// TestCoreCountsRepeat: the core.* counts of a seed are exact, so two
// runs over the same generated input report identical values.
func TestCoreCountsRepeat(t *testing.T) {
	counts := func() map[string]float64 {
		ds, _, err := gen.Generate(gen.Scale(gen.BookCS(7), 0.2))
		if err != nil {
			t.Fatal(err)
		}
		b := dataset.NewBuilder()
		b.AddRecords(dataset.Records(ds))
		rc := &runCtx{params: bayes.DefaultParams(), tr: newTracer(true), batchWalls: map[bool][]float64{}}
		out, _ := rc.batchRun(b.Build(), &core.Incremental{Params: rc.params}, true)
		rep := &report{layer: map[string]float64{}}
		rc.batchLayers(rep, nil)
		if rep.layer["core.detect_ms"] <= 0 || rep.layer["fusion.self_ms"] <= 0 {
			t.Errorf("spans gave no detect/fusion time: %v", rep.layer)
		}
		rc.batchLayers(rep, []*fusion.Outcome{out})
		return rep.layer
	}
	a, b := counts(), counts()
	for _, k := range []string{"core.computations", "core.pairs_considered", "core.entries_scanned", "core.values_examined", "fusion.inner_rounds"} {
		if a[k] != b[k] || a[k] == 0 {
			t.Errorf("%s: %g then %g, want equal and non-zero", k, a[k], b[k])
		}
	}
}
