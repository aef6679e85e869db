// Command zipflm-top is a live terminal dashboard over any zipflm process
// exporting /metrics: it polls the endpoint's Prometheus text, parses it
// with telemetry.ParseText, computes rates and windowed means from
// successive polls, and renders sparkline trends for throughput, latency,
// queue depth, cache hit rate and shed requests — plain ANSI.
//
// Usage:
//
//	zipflm-serve -model model.ckpt -addr :8080 -metrics-addr :9090 &
//	zipflm-top -addr localhost:9090
//
//	zipflm-train -synthetic 200000 -metrics-addr :9090 &
//	zipflm-top -addr localhost:9090
//
// Both commands serve the same /metrics on their -metrics-addr observer
// listener, next to net/http/pprof's /debug/pprof/
// (go tool pprof http://localhost:9090/debug/pprof/profile); zipflm-serve
// also serves /metrics on its public -addr.
//
// -once polls two samples one interval apart, prints a single plain-text
// frame, and exits — the CI smoke mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zipflm/internal/dash"
	"zipflm/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("zipflm-top", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr     = fs.String("addr", "", "host:port of a zipflm /metrics endpoint (required)")
		interval = fs.Duration("interval", time.Second, "poll interval")
		width    = fs.Int("width", dash.DefaultWidth, "sparkline width in cells")
		once     = fs.Bool("once", false, "poll two samples one interval apart, print one plain frame, exit")
		plain    = fs.Bool("plain", false, "plain text frames (no ANSI cursor control), one per poll")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *addr == "" {
		fmt.Fprintln(errOut, "usage: zipflm-top -addr host:port [-interval 1s] [-once] [-plain]")
		return 1
	}
	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/metrics"
	client := &http.Client{Timeout: 10 * time.Second}

	poll := func() (map[string]float64, error) {
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: %s", url, resp.Status)
		}
		series, err := telemetry.ParseText(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", url, err)
		}
		return series, nil
	}

	title := "zipflm-top — " + *addr
	board := dash.New(*width)

	series, err := poll()
	if err != nil {
		fmt.Fprintf(errOut, "zipflm-top: %v\n", err)
		return 1
	}
	board.Observe(time.Now(), series)

	if *once {
		time.Sleep(*interval)
		series, err := poll()
		if err != nil {
			fmt.Fprintf(errOut, "zipflm-top: %v\n", err)
			return 1
		}
		board.Observe(time.Now(), series)
		fmt.Fprint(out, board.Frame(title, false))
		return 0
	}

	ansi := !*plain
	fmt.Fprint(out, board.Frame(title, ansi))

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	misses := 0
	for {
		select {
		case <-sigs:
			fmt.Fprintln(out)
			return 0
		case now := <-ticker.C:
			series, err := poll()
			if err != nil {
				// A restarting server should not kill the dashboard;
				// persistent failure should.
				if misses++; misses >= 5 {
					fmt.Fprintf(errOut, "zipflm-top: %v (5 consecutive failures)\n", err)
					return 1
				}
				continue
			}
			misses = 0
			board.Observe(now, series)
			fmt.Fprint(out, board.Frame(title, ansi))
		}
	}
}
