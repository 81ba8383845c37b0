package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/recurpat/rp/internal/obs"
)

// server is one running rpserved child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	logs chan struct{} // closed once the stderr copier has exited
}

// startServer launches rpserved with -listen on a loopback port the kernel
// picks plus args (only -db and -peers/-shards: every other flag stays at
// its default), learns the address from its start-up line, and waits until
// /healthz answers. TMPDIR points the upload spill files into work.
func startServer(bin, work, name string, args ...string) (*server, error) {
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logs)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "rpserved: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.logs:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening (see %s.log)", name, name)
	case <-time.After(2 * time.Minute):
		s.stop()
		return nil, fmt.Errorf("%s did not start listening", name)
	}
	for i := 0; ; i++ {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 200 {
			s.stop()
			return nil, fmt.Errorf("%s never became healthy: %v", name, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM (rpserved drains and exits), kills the process if it
// has not exited after 20s, and waits for it and its log copier.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	done := make(chan struct{})
	go func() {
		<-s.logs
		_ = s.cmd.Wait() // the exit status of a stopped server is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// procStatus reads a process's peak resident set (VmHWM, MB) and its CPU
// time so far (user+system, ms) from /proc.
func procStatus(pid int) (peakMB, cpuMS float64, err error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			peakMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 10ms.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return peakMB, (ut + st) * 10, nil
}

// httpClient returns a client whose transport opens at most two
// connections per server: the load generator's whole connection budget.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// exchange is one timed request: latency runs from sending the request to
// reading the last byte of the reply.
type exchange struct {
	status int
	body   []byte
	ns     int64
}

// post sends body to url and reads the whole reply.
func post(c *http.Client, url, contentType string, body []byte) (exchange, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return exchange{}, err
	}
	req.Header.Set("Content-Type", contentType)
	start := obs.Now()
	resp, err := c.Do(req)
	if err != nil {
		return exchange{}, err
	}
	b, err := io.ReadAll(resp.Body)
	ns := obs.Since(start)
	resp.Body.Close()
	if err != nil {
		return exchange{}, err
	}
	return exchange{status: resp.StatusCode, body: b, ns: ns}, nil
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// promSamples fetches /metrics and returns every sample keyed by its series
// name with labels, e.g. `rpserved_phase_seconds_sum{phase="scan"}`.
func promSamples(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue // +Inf bucket bounds sit in labels, never in values
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
