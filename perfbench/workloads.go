package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"syscall"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
)

// batchObs is the size of every streamed observation batch.
const batchObs = 500

// maxLagMS is how late the generator may send (at its tail percentile)
// before a run is invalid: past it the schedule, not the system,
// shaped the latencies.
const maxLagMS = 100

// errInvalid marks a run whose load generator fell behind its schedule.
var errInvalid = errors.New("run invalid")

// generate runs the generator under a gen.Generate span.
func (rc *runCtx) generate(cfg gen.Config) (*dataset.Dataset, *gen.Planted, error) {
	id := rc.tr.begin("gen.Generate", 0)
	defer rc.tr.end(id)
	return gen.Generate(cfg)
}

// bookEvery spaces batch-bookcs's streamed appends: longer than a
// serving round on the full Book-CS dataset, so each append starts one
// round that publishes before the next arrives.
const bookEvery = 1500 * time.Millisecond

// drawSeed is the generator seed of every workload's data sets. Each
// workload serves fixed draws, as the paper's data sets are fixed: the
// generator's coverage draws move a data set's size by about ten percent
// from seed to seed, which would otherwise swamp the run-to-run spread.
// Draw 11 of Book-CS has 894 sources, 2,528 items and 131,782
// observations. The run's --seed orders the records the daemon
// receives and so decides which of them are preloaded and which are
// streamed.
const drawSeed = 11

// bookFingerprint is the fingerprint of the Book-CS verdict (copying
// pairs with their posteriors, and the decided truths) that the library
// produced when the benchmark was defined.
const bookFingerprint = "e45d94113ced442f4ab85c506f8cc2baaff58332c96376f4ad9e88eb1d6b6cec"

// batchBookCS: one in-process caller runs the full iterative
// detect+fuse process on Book-CS back to back (fusion.TruthFinder with
// core.Incremental and default, sequential options). copydetectd then
// serves the same records — preloaded during set-up but for a reserve
// streamed in small batches — and its final verdict must equal a batch
// run over what it received. Each of the two phases measures for half
// of the run's seconds.
func batchBookCS(rc *runCtx, rep *report) error {
	var genDS, libDS *dataset.Dataset
	var planted *gen.Planted
	var libB *dataset.Builder
	half := rc.seconds / 2
	appends := int(half / bookEvery)
	svc, setups, err := repeatSetup(rc, func(dir string) (*service, error) {
		ds, pl, err := rc.generate(gen.BookCS(drawSeed))
		if err != nil {
			return nil, err
		}
		recs := dataset.Records(ds)
		b := dataset.NewBuilder()
		b.AddRecords(recs)
		genDS, planted, libB, libDS = ds, pl, b, b.Build()
		f := newFeed("bookcs", shuffled(recs, rc.seed), (appends+1)*batchObs, len(recs), batchObs)
		return startService(rc, dir, []*feed{f})
	})
	if err != nil {
		return err
	}
	defer svc.stop()
	rep.setups = setups
	if err := rep.provenance(rc, svc); err != nil {
		return err
	}

	det := &core.Incremental{Params: rc.params}
	var walls []float64
	var first *fusion.Outcome
	start := time.Now()
	for i := 0; time.Since(start) < half || i < 4; i++ {
		traced := rc.trace && i%2 == 1
		out, wall := rc.batchRun(libDS, det, traced)
		rep.attempted++
		if !traced {
			walls = append(walls, wall.Seconds())
		}
		if fp := libraryVerdict(libDS, out).fingerprint(); fp != bookFingerprint {
			return wrongf("batch run %d: Book-CS verdict fingerprint %s, want %s", i+1, fp, bookFingerprint)
		}
		if first == nil {
			first = out
		}
	}
	rep.e2e["batch_s"] = median(walls)
	prec, rec := quality(libDS, first, genDS, planted)
	rep.notes = append(rep.notes, fmt.Sprintf("Book-CS quality: precision %.4f (closure) recall %.4f (direct pairs), %d copying pairs",
		prec, rec, len(first.Copy.CopyingPairs())))

	f := svc.feeds[0]
	var ops []op
	// The first append is due half a second in, then one per bookEvery.
	for k := 0; k < appends; k++ {
		ops = append(ops, op{Due: bookEvery/3 + time.Duration(k)*bookEvery, Kind: opAppend, Body: f.bodies[k], Batch: k})
	}
	ops = append(ops, pollOps(1, half)...)
	sortOps(ops)
	ph, err := svc.serve(rc.dir, ops, isPoll, readValidator(0, libDS.NumItems()))
	if err != nil {
		return err
	}
	if err := rep.serveE2E(ph, "reads are the watcher's conditional GETs of /copies, every 20 ms"); err != nil {
		return err
	}
	_, _, rss, err := svc.checkStreamed(rc, ph, 1)
	if err != nil {
		return err
	}
	rep.e2e["peak_rss_mb"] = max(rss, selfPeakRSS())
	if rc.trace {
		rc.batchLayers(rep, []*fusion.Outcome{first})
		rc.structureLayers(rep, libB)
		serveLayers(rep, ph)
		if err := rc.handlerLayers(rep, svc.feeds, ph.acked); err != nil {
			return err
		}
	}
	return nil
}

// Stream-stock shape: datasets, their scale against Stock-1day, and the
// aggregate append rate.
const (
	streamDatasets = 3
	streamScale    = 0.1
	streamRate     = 4.0 // appends per second, round robin over datasets
)

// streamStock: copydetectd hosts a few Stock-1day-shaped datasets,
// preloaded and converged, then fed small batches on a fixed open-loop
// schedule while a watcher revalidates each dataset's copies every
// 20 ms.
func streamStock(rc *runCtx, rep *report) error {
	appends := int(rc.seconds.Seconds() * streamRate)
	perDS := (appends + streamDatasets - 1) / streamDatasets
	svc, setups, err := repeatSetup(rc, func(dir string) (*service, error) {
		var feeds []*feed
		for i := 0; i < streamDatasets; i++ {
			ds, _, err := rc.generate(gen.Scale(gen.Stock1Day(drawSeed+int64(i)), streamScale))
			if err != nil {
				return nil, err
			}
			recs := shuffled(dataset.Records(ds), rc.seed)
			feeds = append(feeds, newFeed(fmt.Sprintf("stock-%d", i), recs, (perDS+1)*batchObs, len(recs), batchObs))
		}
		return startService(rc, dir, feeds)
	})
	if err != nil {
		return err
	}
	defer svc.stop()
	rep.setups = setups
	if err := rep.provenance(rc, svc); err != nil {
		return err
	}
	var ops []op
	for k := 0; k < appends; k++ {
		ds, b := k%streamDatasets, k/streamDatasets
		ops = append(ops, op{
			Due:  time.Duration(float64(k) / streamRate * float64(time.Second)),
			Kind: opAppend, DS: ds, Body: svc.feeds[ds].bodies[b], Batch: b,
		})
	}
	ops = append(ops, pollOps(streamDatasets, rc.seconds)...)
	sortOps(ops)
	ph, err := svc.serve(rc.dir, ops, isPoll, readValidator(0, math.MaxInt))
	if err != nil {
		return err
	}
	if err := rep.serveE2E(ph, "reads are the watcher's conditional GETs of /copies, every 20 ms per dataset"); err != nil {
		return err
	}
	return rc.finishStreamed(rep, svc, ph, 5)
}

// Read-mix shape: the data set's scale against Stock-1day, the read
// rate and the append trickle, one batch every trickleEvery — longer
// than a serving round on the data set, so each append starts one round
// that publishes before the next arrives. A 30 s run holds 37 appends
// and 990 reads. Under 40 appends the append and visible tails are
// their medians (p75 would have only ten appends beyond it, and on a
// host with a few percent CPU steal it spread 0.32 between runs); under
// 1,000 reads read_tail_ms is the 95th percentile with 49 reads beyond
// it rather than the 99th with ten.
const (
	readScale    = 0.25
	readRate     = 33.0 // reads per second
	trickleFirst = 500 * time.Millisecond
	trickleEvery = 800 * time.Millisecond
)

// readMix: copydetectd serves one quarter-scale Stock-1day data set,
// converged during set-up, to a fixed-rate mix of /truth, /copies and If-None-Match
// revalidations, while a slow append trickle keeps detection rounds
// running underneath and a watcher polls for the rounds' publication.
func readMix(rc *runCtx, rep *report) error {
	trickle := 0
	for t := trickleFirst; t < rc.seconds; t += trickleEvery {
		trickle++
	}
	var minItems, maxItems int
	svc, setups, err := repeatSetup(rc, func(dir string) (*service, error) {
		ds, _, err := rc.generate(gen.Scale(gen.Stock1Day(drawSeed), readScale))
		if err != nil {
			return nil, err
		}
		recs := shuffled(dataset.Records(ds), rc.seed)
		f := newFeed("stock", recs, (trickle+1)*batchObs, 100_000, batchObs)
		seen := map[string]bool{}
		for _, chunk := range f.preload {
			for _, r := range chunk {
				seen[r.Item] = true
			}
		}
		minItems, maxItems = len(seen), ds.NumItems()
		return startService(rc, dir, []*feed{f})
	})
	if err != nil {
		return err
	}
	defer svc.stop()
	rep.setups = setups
	if err := rep.provenance(rc, svc); err != nil {
		return err
	}
	var ops []op
	// Three in five reads fetch the full truth table, the rest are split
	// between /copies and conditional revalidations (alternating truth
	// and copies), so the median read lies inside the /truth population.
	kinds := []struct {
		kind opKind
		path string
	}{
		{opTruth, "truth"}, {opCopies, "copies"}, {opTruth, "truth"}, {opRevalidate, "truth"}, {opTruth, "truth"},
		{opTruth, "truth"}, {opCopies, "copies"}, {opTruth, "truth"}, {opRevalidate, "copies"}, {opTruth, "truth"},
	}
	// The run holds the mix exactly, in an order shuffled by the seed,
	// and each read falls at a seeded random point of its 1/readRate
	// slot. Strictly periodic reads would meet the trickle at a handful
	// of fixed phases, so a round starting a few ms later or earlier
	// would move whole classes of reads into or out of the time its
	// build holds the data set's lock, and the tail with them.
	n := int(math.Ceil(rc.seconds.Seconds() * readRate))
	rng := rand.New(rand.NewSource(rc.seed))
	order := rng.Perm(n)
	for k := 0; k < n; k++ {
		kd := kinds[order[k]%len(kinds)]
		due := (float64(k) + rng.Float64()) / readRate
		ops = append(ops, op{Due: time.Duration(due * float64(time.Second)), Kind: kd.kind, Path: kd.path})
	}
	for i := 0; i < trickle; i++ {
		ops = append(ops, op{
			Due:  trickleFirst + time.Duration(i)*trickleEvery,
			Kind: opAppend, Body: svc.feeds[0].bodies[i], Batch: i,
		})
	}
	ops = append(ops, pollOps(1, rc.seconds)...)
	sortOps(ops)
	isMix := func(o op) bool { return o.Kind != opAppend && o.Kind != opPoll }
	ph, err := svc.serve(rc.dir, ops, isMix, readValidator(minItems, maxItems))
	if err != nil {
		return err
	}
	if err := rep.serveE2E(ph, "reads are the read mix; a watcher's 20 ms conditional GETs of /copies add visibility sightings"); err != nil {
		return err
	}
	// One batch run here takes about 0.3 s; eleven give batch_s a
	// median over a few seconds rather than over one passing burst of
	// the host's other load.
	return rc.finishStreamed(rep, svc, ph, 11)
}

// finishStreamed checks a daemon workload's final state against batch
// runs (reps per dataset), which also give its batch_s, and stops the
// daemon.
func (rc *runCtx) finishStreamed(rep *report, svc *service, ph *servePhase, reps int) error {
	walls, outs, rss, err := svc.checkStreamed(rc, ph, reps)
	if err != nil {
		return err
	}
	rep.attempted += len(walls)
	rep.e2e["batch_s"] = median(walls)
	rep.e2e["peak_rss_mb"] = rss
	if rc.trace {
		rc.batchLayers(rep, outs)
		rc.structureLayers(rep, svc.finalBuilder(ph, 0))
		serveLayers(rep, ph)
		if err := rc.handlerLayers(rep, svc.feeds, ph.acked); err != nil {
			return err
		}
	}
	return nil
}

// serveE2E fills the serving metrics of a finished schedule and its
// error accounting, and rejects a run whose generator fell behind.
func (rep *report) serveE2E(ph *servePhase, readNote string) error {
	lr := ph.lr
	rep.attempted += len(lr.Ops)
	rep.failed += lr.failures()
	for _, w := range lr.Wrong {
		rep.wrong = append(rep.wrong, w.Error())
	}
	if ph.missing > 0 {
		return wrongf("%d acknowledged appends never became visible", ph.missing)
	}
	lag := summarize(append([]float64(nil), lr.Lags...))
	rep.notes = append(rep.notes, fmt.Sprintf("generator lag: p50 %.3f ms, tail %.3f ms at p%g (n=%d)", lag.P50, lag.Tail, lag.TailPct, lag.N))
	if lag.Tail > maxLagMS {
		return fmt.Errorf("%w: the generator ran %.1f ms late at p%g (limit %d ms)", errInvalid, lag.Tail, lag.TailPct, maxLagMS)
	}
	sets := []struct {
		name string
		xs   []float64
	}{
		{"append", lr.latencies(func(o op) bool { return o.Kind == opAppend })},
		{"visible", ph.visible},
		{"read", lr.latencies(ph.isRead)},
	}
	for _, s := range sets {
		sum := summarize(s.xs)
		if sum.N == 0 {
			return fmt.Errorf("no successful %s samples", s.name)
		}
		rep.e2e[s.name+"_p50_ms"] = sum.P50
		rep.e2e[s.name+"_tail_ms"] = sum.Tail
		rep.notes = append(rep.notes, fmt.Sprintf("%s_tail_ms at p%g, n=%d, %d beyond", s.name, sum.TailPct, sum.N, sum.Beyond))
	}
	rep.notes = append(rep.notes, readNote)
	return nil
}

// isPoll selects the watcher's polls: the reads of workloads without a
// read mix.
func isPoll(o op) bool { return o.Kind == opPoll }

// selfPeakRSS is this process's peak resident set size in MB.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
