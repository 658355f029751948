package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"copydetect/internal/dataset"
	"copydetect/internal/telemetry"
)

// daemon is one copydetectd child process: the system under test of the
// serving phases, run from the freshly built binary with its default
// flags plus a data directory inside the checkout.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	args    []string
	dataDir string
	exited  chan struct{}
	waitErr error
}

// startDaemon launches bin and waits until it has written the address
// it listens on.
func startDaemon(bin, dir string) (*daemon, error) {
	dataDir := filepath.Join(dir, "data")
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data-dir", dataDir}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark is killed before it can stop the daemon, the
	// kernel kills the daemon too rather than leaving it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start copydetectd: %w", err)
	}
	d := &daemon{cmd: cmd, args: args, dataDir: dataDir, exited: make(chan struct{})}
	go func() { d.waitErr = cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("copydetectd exited during start: %v (see %s)", d.waitErr, logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("copydetectd did not publish its address within 30 s")
		}
	}
	return d, nil
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 15 s), waits
// for it and returns its peak resident set size in MB.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return 0
}

// newClient returns the load generator's HTTP client: one process, at
// most conns connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns status, headers and body.
func do(c *http.Client, method, url string, body []byte, hdr map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

// mustOK issues a set-up or check request that has to succeed.
func mustOK(c *http.Client, method, url string, body []byte) ([]byte, error) {
	code, _, b, err := do(c, method, url, body, nil)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if code/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, code, bytes.TrimSpace(b))
	}
	return b, nil
}

// appendBody encodes one observation batch in the daemon's wire format.
func appendBody(recs []dataset.Record) []byte {
	b, err := json.Marshal(map[string][]dataset.Record{"observations": recs})
	if err != nil {
		panic(err) // records are plain strings; Marshal cannot fail
	}
	return b
}

// ackVersion extracts the append version from a 202 response body.
func ackVersion(body []byte) (uint64, error) {
	var ack struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, fmt.Errorf("decode append ack: %w", err)
	}
	return ack.Version, nil
}

// scrapeDelta is the change of a set of daemon metrics over a phase.
type scrapeDelta struct{ before, after []telemetry.Sample }

// sum totals every sample named name (across labels).
func sumSamples(ss []telemetry.Sample, name string) float64 {
	t := 0.0
	for _, s := range ss {
		if s.Name == name {
			t += s.Value
		}
	}
	return t
}

func (d scrapeDelta) delta(name string) float64 {
	return sumSamples(d.after, name) - sumSamples(d.before, name)
}

// meanMS is the mean of a seconds histogram over the phase, in ms.
func (d scrapeDelta) meanMS(hist string) float64 {
	n := d.delta(hist + "_count")
	if n == 0 {
		return 0
	}
	return d.delta(hist+"_sum") / n * 1e3
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
