package main

import (
	"fmt"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opKind is what one scheduled operation does.
type opKind int

const (
	opAppend     opKind = iota // POST an observation batch
	opTruth                    // GET /truth
	opCopies                   // GET /copies
	opRevalidate               // GET /copies or /truth with If-None-Match
	opPoll                     // a watcher's conditional GET of /copies: a visibility probe
)

// op is one scheduled request of an open-loop schedule.
type op struct {
	Due   time.Duration // offset from the schedule's start
	Kind  opKind
	DS    int    // dataset index
	Path  string // "truth" or "copies" for reads
	Body  []byte // append body
	Batch int    // stream batch index, for appends
}

// outcome is what happened to one op.
type outcome struct {
	Sent, Done time.Duration // offsets from the schedule's start
	Status     int
	Err        error
	Version    uint64 // ACKed version (append) or served version (read)
	Bytes      int
}

// failedOp reports whether an operation counts against error_rate:
// a transport error, a refusal (429) or any status other than 2xx/304.
func failedOp(status int, err error) bool {
	return err != nil || !(status/100 == 2 || status == http.StatusNotModified)
}

// etagVersion parses the served append version out of a daemon ETag
// ("name-g<gen>-v<version>-r<round>").
var etagRE = regexp.MustCompile(`-v(\d+)-r\d+"?$`)

func etagVersion(tag string) (uint64, bool) {
	m := etagRE.FindStringSubmatch(tag)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	return v, err == nil
}

// validator checks a 200 read body; an error is a wrong output.
type validator func(o op, body []byte) error

// loadResult is a finished schedule.
type loadResult struct {
	Ops      []op
	Out      []outcome
	Lags     []float64 // dispatch lateness per op, ms
	Wrong    []error   // read bodies that failed validation
	Sighting []sighting
}

// etagCache remembers the last ETag seen per dataset and path, for
// revalidations.
type etagCache struct {
	mu sync.Mutex
	m  map[string]string
}

func (e *etagCache) get(k string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m[k]
}

func (e *etagCache) put(k, v string) {
	e.mu.Lock()
	e.m[k] = v
	e.mu.Unlock()
}

// runSchedule dispatches ops (sorted by Due) open loop: each op is sent
// at its due time whether or not earlier ones have completed, and its
// latency counts from the due time. The schedule's clock starts at
// start.
func runSchedule(c *http.Client, base string, names []string, ops []op, check validator, start time.Time) *loadResult {
	res := &loadResult{Ops: ops, Out: make([]outcome, len(ops)), Lags: make([]float64, len(ops))}
	tags := &etagCache{m: map[string]string{}}
	bodies := make([][]byte, len(ops))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range ops {
		if d := time.Until(start.Add(ops[i].Due)); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(start)
		res.Lags[i] = ms(sent - ops[i].Due)
		wg.Add(1)
		go func(i int, sent time.Duration) {
			defer wg.Done()
			o := ops[i]
			out := outcome{Sent: sent}
			url := base + "/v1/datasets/" + names[o.DS] + "/"
			var body []byte
			var hdr http.Header
			switch o.Kind {
			case opAppend:
				out.Status, hdr, body, out.Err = do(c, http.MethodPost, url+"observations", o.Body, nil)
			case opRevalidate, opPoll:
				key := names[o.DS] + "/" + o.Path
				out.Status, hdr, body, out.Err = do(c, http.MethodGet, url+o.Path, nil,
					map[string]string{"If-None-Match": tags.get(key)})
			default:
				out.Status, hdr, body, out.Err = do(c, http.MethodGet, url+o.Path, nil, nil)
			}
			out.Done = time.Since(start)
			out.Bytes = len(body)
			var wrong error
			switch {
			case failedOp(out.Status, out.Err):
			case o.Kind == opAppend:
				out.Version, wrong = ackVersion(body)
			default:
				tag := hdr.Get("ETag")
				v, ok := etagVersion(tag)
				if !ok {
					wrong = fmt.Errorf("read %s: unparseable ETag %q", o.Path, tag)
					break
				}
				out.Version = v
				tags.put(names[o.DS]+"/"+o.Path, tag)
				if out.Status == http.StatusOK && check != nil {
					// Validated after the schedule, so parsing large
					// bodies does not take CPU from the system under
					// test while it is measured.
					bodies[i] = body
				}
			}
			mu.Lock()
			res.Out[i] = out
			if wrong != nil {
				res.Wrong = append(res.Wrong, wrong)
			}
			if o.Kind != opAppend && out.Version > 0 {
				res.Sighting = append(res.Sighting, sighting{DS: o.DS, Version: out.Version, At: out.Done})
			}
			mu.Unlock()
		}(i, sent)
	}
	wg.Wait()
	for i, b := range bodies {
		if b != nil {
			if err := check(ops[i], b); err != nil {
				res.Wrong = append(res.Wrong, err)
			}
		}
	}
	return res
}

// ack is an acknowledged append: its dataset, version and due time.
type ack struct {
	DS      int
	Version uint64
	Due     time.Duration
}

// sighting is a read that observed a dataset serving a published round
// at Version, completed at At.
type sighting struct {
	DS      int
	Version uint64
	At      time.Duration
}

// visibleLatencies matches every ack to the first sighting (by
// completion time) of its dataset serving a version at or past the
// ack's, and returns due-to-sighting latencies in ms plus the number of
// acks never seen published.
func visibleLatencies(acks []ack, seen []sighting) (lat []float64, missing int) {
	byDS := map[int][]sighting{}
	for _, s := range seen {
		byDS[s.DS] = append(byDS[s.DS], s)
	}
	// Per dataset: sightings in time order with a running maximum of
	// the served version, so the first covering sighting is a binary
	// search.
	prefix := map[int][]uint64{}
	for ds, ss := range byDS {
		sort.Slice(ss, func(i, j int) bool { return ss[i].At < ss[j].At })
		pm := make([]uint64, len(ss))
		var hi uint64
		for i, s := range ss {
			hi = max(hi, s.Version)
			pm[i] = hi
		}
		prefix[ds] = pm
	}
	for _, a := range acks {
		pm := prefix[a.DS]
		i := sort.Search(len(pm), func(i int) bool { return pm[i] >= a.Version })
		if i == len(pm) {
			missing++
			continue
		}
		lat = append(lat, ms(byDS[a.DS][i].At-a.Due))
	}
	return lat, missing
}

// acks collects the successful appends of a schedule.
func (r *loadResult) acks() []ack {
	var out []ack
	for i, o := range r.Ops {
		if o.Kind == opAppend && !failedOp(r.Out[i].Status, r.Out[i].Err) {
			out = append(out, ack{DS: o.DS, Version: r.Out[i].Version, Due: o.Due})
		}
	}
	return out
}

// latencies returns the due-to-completion latency in ms of every
// successful op matching keep.
func (r *loadResult) latencies(keep func(op) bool) []float64 {
	var out []float64
	for i, o := range r.Ops {
		if keep(o) && !failedOp(r.Out[i].Status, r.Out[i].Err) {
			out = append(out, ms(r.Out[i].Done-o.Due))
		}
	}
	return out
}

// writeTSV stores one line per op: due, sent and done offsets in ms,
// kind, dataset, path, status and version.
func (r *loadResult) writeTSV(path string) error {
	var b strings.Builder
	b.WriteString("due_ms\tsent_ms\tdone_ms\tkind\tds\tpath\tstatus\tversion\n")
	for i, o := range r.Ops {
		out := r.Out[i]
		fmt.Fprintf(&b, "%.3f\t%.3f\t%.3f\t%d\t%d\t%s\t%d\t%d\n",
			ms(o.Due), ms(out.Sent), ms(out.Done), o.Kind, o.DS, o.Path, out.Status, out.Version)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// failures counts the ops that failed.
func (r *loadResult) failures() int {
	n := 0
	for _, o := range r.Out {
		if failedOp(o.Status, o.Err) {
			n++
		}
	}
	return n
}

// drain polls every dataset with conditional GETs of /copies every
// interval until each one serves at least want[ds], and returns the
// sightings. It fails after timeout.
func drain(c *http.Client, base string, names []string, want []uint64, interval, timeout time.Duration, start time.Time) ([]sighting, error) {
	var seen []sighting
	tags := make([]string, len(names))
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for ds, name := range names {
			code, hdr, _, err := do(c, http.MethodGet, base+"/v1/datasets/"+name+"/copies", nil,
				map[string]string{"If-None-Match": tags[ds]})
			if err != nil || failedOp(code, nil) {
				return seen, fmt.Errorf("drain poll %s: status %d: %v", name, code, err)
			}
			tags[ds] = hdr.Get("ETag")
			v, ok := etagVersion(tags[ds])
			if !ok {
				return seen, fmt.Errorf("drain poll %s: unparseable ETag %q", name, tags[ds])
			}
			seen = append(seen, sighting{DS: ds, Version: v, At: time.Since(start)})
			if v < want[ds] {
				done = false
			}
		}
		if done {
			return seen, nil
		}
		if time.Now().After(deadline) {
			return seen, fmt.Errorf("datasets not converged %v after the schedule", timeout)
		}
		time.Sleep(interval)
	}
}
