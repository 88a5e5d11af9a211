package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one process of the system under test: an elastisimd daemon or
// a sweep coordinator or worker, started from its built binary.
type child struct {
	name    string
	cmd     *exec.Cmd
	started time.Time
	stdout  bytes.Buffer // valid once exited
	addr    chan string  // the listen address announced on stderr
	exited  chan struct{}
	waitErr error

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startChild runs bin with args. When announce is non-empty, the word
// following it on the first stderr line that contains it is the listen
// address, which waitAddr returns.
func startChild(bin string, args []string, announce string) (*child, error) {
	c := &child{
		name:   fmt.Sprintf("%s %s", filepath.Base(bin), strings.Join(args[:min(2, len(args))], " ")),
		cmd:    exec.Command(bin, args...),
		addr:   make(chan string, 1),
		exited: make(chan struct{}),
	}
	c.cmd.Stdout = &c.stdout
	errPipe, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.stderr.WriteString(line + "\n")
			c.mu.Unlock()
			if announce != "" && strings.Contains(line, announce) {
				fields := strings.Fields(line[strings.Index(line, announce)+len(announce):])
				if len(fields) > 0 {
					select {
					case c.addr <- strings.TrimPrefix(fields[0], "http://"):
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, errPipe)
	}()
	go func() {
		<-copied // Wait closes the pipe, so drain it first
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitAddr returns the announced listen address.
func (c *child) waitAddr(ctx context.Context, timeout time.Duration) (string, error) {
	select {
	case a := <-c.addr:
		return a, nil
	case <-c.exited:
		return "", fmt.Errorf("%s exited before listening: %v\n%s", c.name, c.waitErr, c.stderrText())
	case <-time.After(timeout):
		return "", fmt.Errorf("%s did not announce an address within %v", c.name, timeout)
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

func (c *child) stderrText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.String()
}

// wait blocks until the process exits or the timeout passes, in which case
// it is killed.
func (c *child) wait(timeout time.Duration) error {
	select {
	case <-c.exited:
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("%s did not exit within %v", c.name, timeout)
	}
	if c.waitErr != nil {
		return fmt.Errorf("%s: %w\n%s", c.name, c.waitErr, c.stderrText())
	}
	return nil
}

// interrupt asks the process to drain and exit, as an operator would.
func (c *child) interrupt() {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Signal(os.Interrupt)
	}
}

// kill stops the process at once and waits for it; safe to call after it
// has exited.
func (c *child) kill() {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// cpu returns the process's user+system CPU time: from /proc while it
// runs, from its rusage once it has exited.
func (c *child) cpu() (time.Duration, error) {
	select {
	case <-c.exited:
		return rusageCPU(c.rusage()), nil
	default:
		return procCPU(c.cmd.Process.Pid)
	}
}

func (c *child) rusage() *syscall.Rusage {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru
	}
	return &syscall.Rusage{}
}

// peakRSSMB is the exited process's peak resident set in MiB.
func (c *child) peakRSSMB() float64 { return float64(c.rusage().Maxrss) / 1024 }

// procGroup kills every process it started when the run ends, whatever
// path it ends on.
type procGroup struct{ children []*child }

func (g *procGroup) start(bin string, args []string, announce string) (*child, error) {
	c, err := startChild(bin, args, announce)
	if err != nil {
		return nil, err
	}
	g.children = append(g.children, c)
	return c, nil
}

func (g *procGroup) killAll() {
	for _, c := range g.children {
		c.kill()
	}
}

// newHTTPClient returns the client that talks to the system under test
// over loopback, reusing keep-alive connections as a real client would.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
}

// getBody fetches url and returns the body of a 200 response.
func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// pollUntil calls probe every interval until it reports done, and returns
// the time it first did.
func pollUntil(ctx context.Context, interval, timeout time.Duration, probe func() (bool, error)) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		done, err := probe()
		now := time.Now()
		if err == nil && done {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("condition not met within %v (last error: %v)", timeout, err)
		}
		select {
		case <-ctx.Done():
			return now, ctx.Err()
		case <-time.After(interval):
		}
	}
}
