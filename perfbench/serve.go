package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/telemetry"
)

// feed is one dataset as the load generator sends it: chunks appended
// during set-up, then the batches the schedule streams.
type feed struct {
	name    string
	preload [][]dataset.Record
	stream  [][]dataset.Record
	bodies  [][]byte // stream batches, encoded during set-up
}

// newFeed splits recs into a preload of everything but reserve records
// (in chunks of at most chunk) and stream batches of batch records.
func newFeed(name string, recs []dataset.Record, reserve, chunk, batch int) *feed {
	f := &feed{name: name}
	cut := len(recs) - reserve
	for i := 0; i < cut; i += chunk {
		f.preload = append(f.preload, recs[i:min(i+chunk, cut)])
	}
	for i := cut; i < len(recs); i += batch {
		b := recs[i:min(i+batch, len(recs))]
		f.stream = append(f.stream, b)
		f.bodies = append(f.bodies, appendBody(b))
	}
	return f
}

// shuffled returns recs in a seeded random order, so streamed batches
// mix sources and items the way arriving observations do.
func shuffled(recs []dataset.Record, seed int64) []dataset.Record {
	out := append([]dataset.Record(nil), recs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// service is a running copydetectd with its datasets preloaded and
// converged.
type service struct {
	d     *daemon
	c     *http.Client
	feeds []*feed
	names []string
}

// startService starts a daemon in dir, creates every feed's dataset,
// appends its preload and waits until each has converged.
func startService(rc *runCtx, dir string, feeds []*feed) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(rc.bin, dir)
	if err != nil {
		return nil, err
	}
	s := &service{d: d, c: newClient(rc.conns), feeds: feeds}
	for _, f := range feeds {
		s.names = append(s.names, f.name)
		url := d.base + "/v1/datasets/" + f.name
		if _, err := mustOK(s.c, http.MethodPut, url, nil); err != nil {
			s.stop()
			return nil, err
		}
		for _, chunk := range f.preload {
			if _, err := mustOK(s.c, http.MethodPost, url+"/observations", appendBody(chunk)); err != nil {
				s.stop()
				return nil, err
			}
		}
	}
	for _, name := range s.names {
		if _, err := mustOK(s.c, http.MethodPost, d.base+"/v1/datasets/"+name+"/quiesce", nil); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// settle is the idle pause between set-up and the schedule: the daemon
// snapshots every dataset after the converging round in the background,
// and that write belongs to set-up, not to the first scheduled appends.
const settle = time.Second

// stop ends the daemon and returns its peak RSS in MB.
func (s *service) stop() float64 {
	s.c.CloseIdleConnections()
	return s.d.stop()
}

// setupRepeats is how many times a run sets its workload up from
// scratch; setup_s is the median, and the last set-up is measured.
const setupRepeats = 3

// repeatSetup runs build setupRepeats times, stopping each service but
// the last before the next set-up starts, and returns the last one with
// every set-up wall time in seconds.
func repeatSetup(rc *runCtx, build func(dir string) (*service, error)) (*service, []float64, error) {
	var svc *service
	var walls []float64
	for i := 0; i < setupRepeats; i++ {
		if svc != nil {
			svc.stop()
			_ = os.RemoveAll(svc.d.dataDir)
		}
		t0 := time.Now()
		var err error
		svc, err = build(filepath.Join(rc.dir, "setup-"+strconv.Itoa(i)))
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return svc, walls, nil
}

// servePhase is a finished open-loop schedule against the service.
type servePhase struct {
	lr      *loadResult
	isRead  func(op) bool // the ops read_* is measured over
	visible []float64
	missing int
	scrape  scrapeDelta
	acked   [][]int // per dataset, stream batch indices in ACK version order
}

// pollEvery is the watcher's interval per dataset, during the schedule
// and after it: the resolution of visible_*.
const pollEvery = 20 * time.Millisecond

// serve runs ops open loop, then polls until every acknowledged append
// is visible, and matches acknowledgements to published rounds. isRead
// picks the ops read_* is measured over. Every op's timing is kept in
// dir/ops.tsv.
func (s *service) serve(dir string, ops []op, isRead func(op) bool, check validator) (*servePhase, error) {
	time.Sleep(settle)
	before, err := telemetry.Scrape(s.c, s.d.base)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	lr := runSchedule(s.c, s.d.base, s.names, ops, check, start)
	acks := lr.acks()
	want := make([]uint64, len(s.names))
	for _, a := range acks {
		want[a.DS] = max(want[a.DS], a.Version)
	}
	seen, err := drain(s.c, s.d.base, s.names, want, pollEvery, 60*time.Second, start)
	if err != nil {
		return nil, err
	}
	after, err := telemetry.Scrape(s.c, s.d.base)
	if err != nil {
		return nil, err
	}
	if err := lr.writeTSV(filepath.Join(dir, "ops.tsv")); err != nil {
		return nil, err
	}
	ph := &servePhase{lr: lr, isRead: isRead, scrape: scrapeDelta{before, after}}
	ph.visible, ph.missing = visibleLatencies(acks, append(lr.Sighting, seen...))
	ph.acked = make([][]int, len(s.names))
	type vb struct {
		v     uint64
		batch int
	}
	order := make([][]vb, len(s.names))
	for i, o := range ops {
		if o.Kind == opAppend && !failedOp(lr.Out[i].Status, lr.Out[i].Err) {
			order[o.DS] = append(order[o.DS], vb{lr.Out[i].Version, o.Batch})
		}
	}
	for ds, list := range order {
		sort.Slice(list, func(i, j int) bool { return list[i].v < list[j].v })
		for _, x := range list {
			ph.acked[ds] = append(ph.acked[ds], x.batch)
		}
	}
	return ph, nil
}

// finalBuilder replays what dataset ds received, in version order, into
// a fresh Builder — the batch reference for the streamed result.
func (s *service) finalBuilder(ph *servePhase, ds int) *dataset.Builder {
	b := dataset.NewBuilder()
	f := s.feeds[ds]
	for _, chunk := range f.preload {
		b.AddRecords(chunk)
	}
	for _, i := range ph.acked[ds] {
		b.AddRecords(f.stream[i])
	}
	return b
}

// checkStreamed compares every dataset's final published copies and
// truths, by name, with a batch TruthFinder run over the same records
// (the streamed ≡ batch contract), repeating each batch run reps times.
// It stops the daemon once it has read the verdicts, so the batch runs
// have the machine to themselves, and returns the untraced runs' wall
// times in seconds, one outcome per dataset and the daemon's peak RSS.
func (s *service) checkStreamed(rc *runCtx, ph *servePhase, reps int) ([]float64, []*fusion.Outcome, float64, error) {
	got := make([]verdict, len(s.names))
	algos := make([]string, len(s.names))
	for ds, name := range s.names {
		var err error
		if got[ds], algos[ds], err = daemonVerdict(s.c, s.d.base, name); err != nil {
			return nil, nil, 0, err
		}
	}
	rss := s.stop()
	var walls []float64
	var outs []*fusion.Outcome
	for ds, name := range s.names {
		final := s.finalBuilder(ph, ds).Build()
		var det core.Detector = &core.Incremental{Params: rc.params}
		if algos[ds] == "HYBRID" {
			det = &core.Hybrid{Params: rc.params}
		}
		// A traced run makes one untraced and one traced batch run,
		// alternating which goes first, so the two walls give the
		// tracing overhead.
		var order []bool
		for r := 0; r < reps; r++ {
			order = append(order, false)
		}
		if rc.trace {
			order = []bool{ds%2 == 1, ds%2 == 0}
		}
		var out *fusion.Outcome
		for _, traced := range order {
			var wall time.Duration
			out, wall = rc.batchRun(final, det, traced)
			if !traced {
				walls = append(walls, wall.Seconds())
			}
		}
		outs = append(outs, out)
		if d := libraryVerdict(final, out).diff(got[ds]); d != "" {
			return nil, nil, 0, wrongf("dataset %s: streamed result differs from a batch %s run over the same records: %s", name, algos[ds], d)
		}
		if len(got[ds].Truth) != final.NumItems() {
			return nil, nil, 0, wrongf("dataset %s: /truth decides %d items, the dataset has %d", name, len(got[ds].Truth), final.NumItems())
		}
	}
	return walls, outs, rss, nil
}

// datasetWorkers reads the pool worker count the daemon gave a dataset.
func (s *service) datasetWorkers() (int, error) {
	b, err := mustOK(s.c, http.MethodGet, s.d.base+"/v1/datasets/"+s.names[0], nil)
	if err != nil {
		return 0, err
	}
	var info struct {
		Workers int `json:"workers"`
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return 0, fmt.Errorf("decode dataset info: %w", err)
	}
	return info.Workers, nil
}

// readValidator checks every 200 read body: it must parse, and a /truth
// body must decide between minItems and maxItems items.
func readValidator(minItems, maxItems int) validator {
	return func(o op, body []byte) error {
		if o.Path == "copies" {
			var cb copiesBody
			if err := json.Unmarshal(body, &cb); err != nil {
				return fmt.Errorf("copies body does not parse: %w", err)
			}
			return nil
		}
		var tb truthBody
		if err := json.Unmarshal(body, &tb); err != nil {
			return fmt.Errorf("truth body does not parse: %w", err)
		}
		if n := len(tb.Truth); n < minItems || n > maxItems {
			return fmt.Errorf("truth at v%d decides %d items, want %d..%d", tb.Version, n, minItems, maxItems)
		}
		return nil
	}
}

// pollOps schedules the watcher: a conditional GET of /copies for every
// dataset each pollEvery from 0 to until, staggered across datasets.
func pollOps(datasets int, until time.Duration) []op {
	var ops []op
	for ds := 0; ds < datasets; ds++ {
		for t := time.Duration(ds) * pollEvery / time.Duration(datasets); t < until; t += pollEvery {
			ops = append(ops, op{Due: t, Kind: opPoll, DS: ds, Path: "copies"})
		}
	}
	return ops
}

// sortOps orders a schedule by due time.
func sortOps(ops []op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
}
