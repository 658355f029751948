// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the code in the checkout it is started from,
// checks that the outputs are correct, and prints every metric by name
// with its unit; the last line of standard output is the JSON result.
//
//	perfbench --workload batch-bookcs|stream-stock|read-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, timed from spans the benchmark records
// around calls into each module's public functions. run.sh builds this
// program and copydetectd from source and runs it; METRICS.md describes
// every workload and metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"copydetect/internal/bayes"
)

// runCtx carries one run's settings.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // this run's working directory, inside the checkout
	bin     string // the copydetectd binary
	conns   int    // load-generator connections (nproc)
	params  bayes.Params
	tr      *tracer
	// batchWalls holds every batch run's wall time in ms, keyed by
	// whether it was traced.
	batchWalls map[bool][]float64
}

// report is what a run measured.
type report struct {
	e2e, layer        map[string]float64
	setups            []float64
	notes             []string
	prov              [][2]string
	attempted, failed int
	wrong             []string
}

// wrongOutput is a failed correctness check: the run reports
// correct=false rather than a slow result.
type wrongOutput struct{ msg string }

func (w *wrongOutput) Error() string { return w.msg }

func wrongf(format string, a ...any) error { return &wrongOutput{fmt.Sprintf(format, a...)} }

var workloads = map[string]func(*runCtx, *report) error{
	"batch-bookcs": batchBookCS,
	"stream-stock": streamStock,
	"read-mix":     readMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: batch-bookcs, stream-stock or read-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (batch-bookcs, stream-stock, read-mix), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	dir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-seed%d-trace%d-%d", *name, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(filepath.Join(dir, "inproc"))
	rc := &runCtx{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		dir: dir, bin: filepath.Join(".bench_build", "bin", "copydetectd"), conns: runtime.NumCPU(), params: bayes.DefaultParams(),
		tr: newTracer(*trace == 1), batchWalls: map[bool][]float64{},
	}
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	steal0, total0 := cpuTicks()
	err := wl(rc, rep)
	steal1, total1 := cpuTicks()
	removeDataDirs(dir)
	var wrong *wrongOutput
	switch {
	case errors.Is(err, errInvalid):
		fmt.Fprintf(stdout, "perfbench: %v\n", err)
		return 3
	case errors.As(err, &wrong):
		rep.wrong = append(rep.wrong, wrong.msg)
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if total1 > total0 {
		// Time the hypervisor gave this machine's CPUs to other guests:
		// above a few percent, every latency here grows with it.
		rep.prov = append(rep.prov, [2]string{"cpu_steal", fmt.Sprintf("%.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))})
	}
	rep.e2e["setup_s"] = median(rep.setups)
	defs, values := e2eMetrics, rep.e2e
	if rc.trace {
		spans := rc.tr.closed()
		rep.layer["gen.generate_ms"] = median(durations(spans, "gen.Generate"))
		rep.layer["server.round_wait_ms"] = rep.e2e["visible_p50_ms"] - rep.layer["dataset.build_ms"] - rep.layer["server.round_wall_ms"]
		defs, values = layerMetrics, rep.layer
		if err := rc.tr.write(filepath.Join(dir, "spans.json")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 2
		}
	}
	return rep.print(stdout, *name, *seed, defs, values, filepath.Join(dir, "result.json"))
}

// print writes the human-readable report and the JSON result line, and
// keeps a copy of both (with provenance) in the run directory.
func (rep *report) print(stdout io.Writer, name string, seed int64, defs []metricDef, values map[string]float64, keep string) int {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench %s seed %d\n", name, seed)
	for _, p := range rep.prov {
		fmt.Fprintf(w, "  %-14s %s\n", p[0], p[1])
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && len(rep.wrong) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", name, d.name)
			return 2
		}
		metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", d.name, v, d.unit)
	}
	errorRate := 0.0
	if rep.attempted > 0 {
		errorRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "  %-26s %14.6f ratio (%d failed of %d attempted)\n", "error_rate", errorRate, rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, m := range rep.wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", m)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.wrong) == 0, max(rep.attempted, 1), rep.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	full, _ := json.MarshalIndent(map[string]any{"provenance": rep.prov, "notes": rep.notes, "wrong": rep.wrong, "error_rate": errorRate, "result": res}, "", "  ")
	if err := os.WriteFile(keep, full, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// removeDataDirs deletes the daemons' data directories of a finished
// run, keeping its logs, spans and result.
func removeDataDirs(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "setup-*", "data"))
	for _, m := range matches {
		_ = os.RemoveAll(m)
	}
}

// provenance records what produced the run: source, machine, toolchain
// and the daemon's configuration.
func (rep *report) provenance(rc *runCtx, svc *service) error {
	workers, err := svc.datasetWorkers()
	if err != nil {
		return err
	}
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	rep.prov = [][2]string{
		{"commit", commit},
		{"source_sha256", sourceDigest(".")},
		{"seed", strconv.FormatInt(rc.seed, 10)},
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"cpu", cpuModel()},
		{"data_dir_fs", fsType(svc.d.dataDir)},
		{"fsync", "on (copydetectd default with -data-dir)"},
		{"daemon_flags", strings.Join(svc.d.args, " ")},
		{"pool_workers", strconv.Itoa(workers)},
		{"client_conns", strconv.Itoa(rc.conns)},
		{"seconds", strconv.Itoa(int(rc.seconds.Seconds()))},
	}
	return nil
}

// sourceDigest hashes every Go source and module file under root
// (skipping dot directories such as the build directory), so a result
// names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() && path != root && strings.HasPrefix(info.Name(), ".") {
			return filepath.SkipDir
		}
		if n := info.Name(); info.Mode().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks returns the machine's stolen and total CPU time from
// /proc/stat, in clock ticks (zeros where it cannot be read).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%X", st.Type)
}
