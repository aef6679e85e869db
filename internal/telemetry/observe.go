package telemetry

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"
)

// This file is the one place a command attaches its observers. A command
// declares the observer flags with Options.RegisterFlags, parses, and hands
// the result to Start, which builds the registry, tracer, flight recorder,
// history ring and observer listener the flags ask for; Observers.Stop
// tears all of it down and writes the trace.

// Options are the observers a command runs, as its flags set them.
type Options struct {
	Trace           string        // -trace: Chrome trace file written by Stop
	Flight          int           // -flight: flight-recorder ring capacity (0 disables)
	MetricsAddr     string        // -metrics-addr: the observer listener
	History         int           // -history: history ring capacity (0 disables)
	HistoryInterval time.Duration // -history-interval

	// Exported marks a command that also serves the registry on a
	// listener of its own (zipflm-serve's -addr): the registry and the
	// history ring then run without -metrics-addr.
	Exported bool
	// VClockGauge names the gauge the history's virtual-clock axis reads
	// (empty: no virtual axis).
	VClockGauge string
}

// RegisterFlags declares -trace and -flight on fs, and with listener also
// -metrics-addr, -history and -history-interval, with o's current values as
// defaults; fs.Parse then fills o in.
func (o *Options) RegisterFlags(fs *flag.FlagSet, listener bool) {
	fs.StringVar(&o.Trace, "trace", o.Trace, "write a Chrome trace_event JSON timeline to this file on exit (view in Perfetto or zipflm-trace; empty disables)")
	fs.IntVar(&o.Flight, "flight", o.Flight, "flight-recorder ring capacity; dumped on an anomaly (fault rollback, overload) or SIGQUIT (0 disables)")
	if !listener {
		return
	}
	fs.StringVar(&o.MetricsAddr, "metrics-addr", o.MetricsAddr, "serve /metrics, /metrics/history and /debug/pprof/ on this address (empty disables)")
	fs.IntVar(&o.History, "history", o.History, "metrics-history ring capacity, sampled every -history-interval and served at /metrics/history (0 disables)")
	fs.DurationVar(&o.HistoryInterval, "history-interval", o.HistoryInterval, "metrics-history sampling interval")
}

// Observers are the running observers; each is nil when its flag left it
// off, and every one of them is nil-safe.
type Observers struct {
	Registry *Registry
	Build    BuildInfo
	Tracer   *Tracer
	Flight   *Flight
	History  *History

	addr string
	stop func() error
}

// observerHeaderTimeout bounds how long a client may take to send its
// request headers: one that never finishes must not hold a connection for
// the whole run.
const observerHeaderTimeout = 10 * time.Second

// Start starts the observers o asks for, logging as name on stderr. The
// registry (and with it the history ring) exists when something serves it:
// -metrics-addr, or Exported.
func Start(name string, o Options) (*Observers, error) {
	obs := &Observers{}
	if o.MetricsAddr != "" || o.Exported {
		obs.Registry = NewRegistry()
		obs.Build = PublishBuildInfo(obs.Registry)
	} else {
		obs.Build = CollectBuildInfo()
	}
	if o.Trace != "" {
		obs.Tracer = NewTracer(0)
		obs.Registry.ObserveTracer(obs.Tracer)
	}
	if o.History > 0 {
		cfg := HistoryConfig{Capacity: o.History, Interval: o.HistoryInterval}
		if o.VClockGauge != "" && obs.Registry != nil {
			cfg.VClock = obs.Registry.Gauge(o.VClockGauge).Value
		}
		obs.History = NewHistory(obs.Registry, cfg)
	}

	var srv *http.Server
	var served chan struct{}
	if o.MetricsAddr != "" {
		lis, err := net.Listen("tcp", o.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		obs.addr = lis.Addr().String()
		mux := http.NewServeMux()
		obs.Handle(mux)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv = &http.Server{Handler: mux, ReadHeaderTimeout: observerHeaderTimeout}
		served = make(chan struct{})
		go func() {
			defer close(served)
			if err := srv.Serve(lis); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "%s: observer listener: %v\n", name, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "%s: observers on http://%s (/metrics, /metrics/history, /debug/pprof/)\n", name, obs.addr)
	}
	stopHistory := obs.History.Start()
	var stopFlight func()
	obs.Flight, stopFlight = startFlight(o.Flight)

	obs.stop = sync.OnceValue(func() error {
		if srv != nil {
			srv.Close()
			<-served
		}
		stopHistory()
		stopFlight()
		if obs.Tracer == nil {
			return nil
		}
		if err := obs.Tracer.WriteFile(o.Trace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d trace events to %s\n", name, obs.Tracer.Len(), o.Trace)
		return nil
	})
	return obs, nil
}

// Addr returns the observer listener's bound address ("" without
// -metrics-addr).
func (obs *Observers) Addr() string { return obs.addr }

// Handle registers /metrics and /metrics/history on mux. Without a history
// ring, /metrics/history answers 404.
func (obs *Observers) Handle(mux *http.ServeMux) {
	mux.Handle("/metrics", Handler(obs.Registry))
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, _ *http.Request) {
		if obs.History == nil {
			http.Error(w, "history disabled (-history 0)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		obs.History.Sample(time.Now()) // fold the current instant in, so a scrape is never stale
		obs.History.WriteJSON(w)
	})
}

// Stop closes the listener, takes the history's final sample, disarms the
// flight recorder and writes the trace. It is idempotent and safe to call
// concurrently: every call returns the first call's error.
func (obs *Observers) Stop() error { return obs.stop() }
