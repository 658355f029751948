package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/index"
	"copydetect/internal/pool"
	"copydetect/internal/server"
	"copydetect/internal/telemetry"
)

// tracedDetector records every DetectRound as a span under the
// TruthFinder.Run span that called it.
type tracedDetector struct {
	core.Detector
	tr     *tracer
	parent int
}

func (t *tracedDetector) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *core.Result {
	id := t.tr.begin("core.DetectRound", t.parent)
	defer t.tr.end(id)
	return t.Detector.DetectRound(ds, st, round)
}

// Reset forwards to the wrapped detector, which TruthFinder.Run resets
// before every process.
func (t *tracedDetector) Reset() { core.ResetDetector(t.Detector) }

// batchRun is one full iterative detect+fuse process over ds, as the
// library's default caller runs it (sequential detector options). A
// traced run records a TruthFinder.Run span with DetectRound children.
func (rc *runCtx) batchRun(ds *dataset.Dataset, det core.Detector, traced bool) (*fusion.Outcome, time.Duration) {
	// Start every run from a collected heap, so garbage left by earlier
	// phases does not decide when this run's collections fall.
	runtime.GC()
	d, id := det, 0
	if traced {
		id = rc.tr.begin("fusion.TruthFinder.Run", 0)
		d = &tracedDetector{Detector: det, tr: rc.tr, parent: id}
	}
	t0 := time.Now()
	out := (&fusion.TruthFinder{Params: rc.params}).Run(ds, d)
	wall := time.Since(t0)
	rc.tr.end(id)
	rc.batchWalls[traced] = append(rc.batchWalls[traced], ms(wall))
	return out, wall
}

// childSums returns, per span named parent, the summed durations of its
// children named child, in ms.
func childSums(spans []span, parent, child string) []float64 {
	sum := map[int]float64{}
	for _, s := range spans {
		if s.Name == child && s.Parent != 0 {
			sum[s.Parent] += ms(s.dur())
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == parent {
			out = append(out, sum[s.ID])
		}
	}
	return out
}

// batchLayers fills the core, index and fusion metrics from traced
// batch runs and their outcomes; the counts are summed over outs, one
// outcome per distinct input.
func (rc *runCtx) batchLayers(rep *report, outs []*fusion.Outcome) {
	spans := rc.tr.closed()
	rep.layer["core.detect_ms"] = median(childSums(spans, "fusion.TruthFinder.Run", "core.DetectRound"))
	rep.layer["fusion.self_ms"] = median(selfTimes(spans, "fusion.TruthFinder.Run"))
	var total core.Stats
	var prep, rounds []float64
	for _, out := range outs {
		total.Add(out.TotalStats)
		var ib time.Duration
		for _, st := range out.RoundStats {
			ib += st.IndexBuild
		}
		prep = append(prep, ms(ib)/float64(out.Rounds))
		rounds = append(rounds, float64(out.Rounds))
	}
	rep.layer["index.prepare_ms"] = median(prep)
	rep.layer["fusion.inner_rounds"] = median(rounds)
	rep.layer["core.computations"] = float64(total.Computations)
	rep.layer["core.pairs_considered"] = float64(total.PairsConsidered)
	rep.layer["core.entries_scanned"] = float64(total.EntriesScanned)
	rep.layer["core.values_examined"] = float64(total.ValuesExamined)
	if len(rc.batchWalls[true]) > 0 && len(rc.batchWalls[false]) > 0 {
		rep.layer["bench.trace_overhead_ms"] = median(rc.batchWalls[true]) - median(rc.batchWalls[false])
	}
}

// structureLayers times Builder.Build and index.NewStructure on the
// records of b, three times each.
func (rc *runCtx) structureLayers(rep *report, b *dataset.Builder) {
	var ds *dataset.Dataset
	for i := 0; i < 3; i++ {
		id := rc.tr.begin("dataset.Builder.Build", 0)
		ds = b.Build()
		rc.tr.end(id)
	}
	for i := 0; i < 3; i++ {
		id := rc.tr.begin("index.NewStructure", 0)
		index.NewStructure(ds)
		rc.tr.end(id)
	}
	spans := rc.tr.closed()
	rep.layer["dataset.build_ms"] = median(durations(spans, "dataset.Builder.Build"))
	rep.layer["index.structure_ms"] = median(durations(spans, "index.NewStructure"))
}

// serveLayers fills the daemon-side metrics of a serving phase from the
// daemon's own counters and histograms (scrape deltas).
func serveLayers(rep *report, ph *servePhase) {
	d := ph.scrape
	rounds := d.delta("copydetectd_rounds_total")
	rep.layer["server.round_wall_ms"] = d.meanMS("copydetectd_round_duration_seconds")
	rep.layer["server.rounds_published"] = rounds
	if rounds > 0 {
		rep.layer["server.appends_per_round"] = float64(len(ph.lr.acks())) / rounds
	}
	rep.layer["server.admission_rejects"] = d.delta("copydetectd_admission_rejections_total")
	rep.layer["wal.append_ms"] = d.meanMS("copydetectd_wal_append_seconds")
	rep.layer["wal.fsync_ms"] = d.meanMS("copydetectd_wal_fsync_seconds")
	rep.layer["bench.lag_tail_ms"] = summarize(append([]float64(nil), ph.lr.Lags...)).Tail
	var sizes []float64
	for i, o := range ph.lr.Ops {
		if ph.isRead(o) && ph.lr.Out[i].Status == http.StatusOK {
			sizes = append(sizes, float64(ph.lr.Out[i].Bytes))
		}
	}
	rep.layer["server.read_bytes"] = median(sizes)
}

// handlerLayers replays the workload's appends and reads through the
// server's HTTP handler in process, on a durable registry configured
// like the daemon (fsync on, one pool worker per CPU) except that it
// never compacts, so the data directory's growth is the log's. It times
// the append and read routes, the telemetry middleware against the bare
// handler, and the log bytes per observation.
func (rc *runCtx) handlerLayers(rep *report, feeds []*feed, acked [][]int) error {
	dir := filepath.Join(rc.dir, "inproc")
	reg, err := server.Open(server.Config{
		DataDir: dir, Fsync: true, SnapshotEvery: 1 << 30,
		Options: core.Options{Workers: pool.Auto()},
	})
	if err != nil {
		return fmt.Errorf("in-process registry: %w", err)
	}
	defer reg.Close()
	logf, err := os.Create(filepath.Join(rc.dir, "inproc-access.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	bare := server.NewHandler(reg)
	treg := telemetry.New()
	reg.RegisterMetrics(treg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", treg.Handler())
	mux.Handle("/", bare)
	wrapped := telemetry.NewHTTPMetrics(treg, "copydetectd", log.New(logf, "", log.LstdFlags)).Wrap(mux)

	call := func(h http.Handler, method, path string, body []byte, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	traced := func(name, method, path string, body []byte, inm string) *httptest.ResponseRecorder {
		id := rc.tr.begin(name, 0)
		w := call(bare, method, path, body, inm)
		rc.tr.end(id)
		return w
	}
	for _, f := range feeds {
		url := "/v1/datasets/" + f.name
		if w := call(bare, http.MethodPut, url, nil, ""); w.Code != http.StatusCreated {
			return fmt.Errorf("in-process create %s: status %d", f.name, w.Code)
		}
		for _, chunk := range f.preload {
			if w := call(bare, http.MethodPost, url+"/observations", appendBody(chunk), ""); w.Code != http.StatusAccepted {
				return fmt.Errorf("in-process preload %s: status %d", f.name, w.Code)
			}
		}
	}
	grown0 := dirBytes(dir)
	obs := 0
	for ds, f := range feeds {
		for _, i := range acked[ds] {
			w := traced("server.ServeHTTP append", http.MethodPost, "/v1/datasets/"+f.name+"/observations", f.bodies[i], "")
			if w.Code != http.StatusAccepted {
				return fmt.Errorf("in-process append %s: status %d", f.name, w.Code)
			}
			obs += len(f.stream[i])
		}
	}
	if obs > 0 {
		rep.layer["wal.bytes_per_obs"] = float64(dirBytes(dir)-grown0) / float64(obs)
	}
	for _, f := range feeds {
		if _, err := reg.Quiesce(context.Background(), f.name); err != nil {
			return fmt.Errorf("in-process quiesce %s: %w", f.name, err)
		}
	}
	url := "/v1/datasets/" + feeds[0].name
	etag := call(bare, http.MethodGet, url+"/copies", nil, "").Header().Get("ETag")
	for i := 0; i < 20; i++ {
		traced("server.ServeHTTP truth", http.MethodGet, url+"/truth", nil, "")
		traced("server.ServeHTTP copies", http.MethodGet, url+"/copies", nil, "")
		if w := traced("server.ServeHTTP 304", http.MethodGet, url+"/copies", nil, etag); w.Code != http.StatusNotModified {
			return fmt.Errorf("in-process revalidation: status %d, want 304", w.Code)
		}
	}
	// The middleware's cost: the same revalidation through the wrapped
	// stack and the bare handler, alternating.
	var withMW, without []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		call(wrapped, http.MethodGet, url+"/copies", nil, etag)
		t1 := time.Now()
		call(bare, http.MethodGet, url+"/copies", nil, etag)
		withMW = append(withMW, ms(t1.Sub(t0)))
		without = append(without, ms(time.Since(t1)))
	}
	rep.layer["telemetry.overhead_ms"] = median(withMW) - median(without)
	spans := rc.tr.closed()
	rep.layer["server.append_ms"] = median(durations(spans, "server.ServeHTTP append"))
	rep.layer["server.read_truth_ms"] = median(durations(spans, "server.ServeHTTP truth"))
	rep.layer["server.read_copies_ms"] = median(durations(spans, "server.ServeHTTP copies"))
	rep.layer["server.read_304_ms"] = median(durations(spans, "server.ServeHTTP 304"))
	return nil
}
