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
// the result to Start, which builds the registry, tracer, flight recorder
// and observer listener the flags ask for; Observers.Stop tears all of it
// down and writes the trace.

// Options are the observers a command runs, as its flags set them.
type Options struct {
	Trace       string // -trace: Chrome trace file written by Stop
	Flight      int    // -flight: flight-recorder ring capacity (0 disables)
	MetricsAddr string // -metrics-addr: the observer listener

	// Exported marks a command that also serves the registry on a
	// listener of its own (zipflm-serve's -addr): the registry then runs
	// without -metrics-addr.
	Exported bool
}

// RegisterFlags declares -trace and -flight on fs, and with listener also
// -metrics-addr, with o's current values as defaults; fs.Parse then fills
// o in.
func (o *Options) RegisterFlags(fs *flag.FlagSet, listener bool) {
	fs.StringVar(&o.Trace, "trace", o.Trace, "write a Chrome trace_event JSON timeline to this file on exit (view in Perfetto or zipflm-trace; empty disables)")
	fs.IntVar(&o.Flight, "flight", o.Flight, "flight-recorder ring capacity; dumped on an anomaly (fault rollback, overload) or SIGQUIT (0 disables)")
	if !listener {
		return
	}
	fs.StringVar(&o.MetricsAddr, "metrics-addr", o.MetricsAddr, "serve /metrics and /debug/pprof/ on this address (empty disables)")
}

// Observers are the running observers; each is nil when its flag left it
// off, and every one of them is nil-safe.
type Observers struct {
	Registry *Registry
	Build    BuildInfo
	Tracer   *Tracer
	Flight   *Flight

	addr string
	stop func() error
}

// observerHeaderTimeout bounds how long a client may take to send its
// request headers: one that never finishes must not hold a connection for
// the whole run.
const observerHeaderTimeout = 10 * time.Second

// Start starts the observers o asks for, logging as name on stderr. The
// registry exists when something serves it: -metrics-addr, or Exported.
func Start(name string, o Options) (*Observers, error) {
	obs := &Observers{Build: CollectBuildInfo()}
	if o.MetricsAddr != "" || o.Exported {
		obs.Registry = NewRegistry()
	}
	if o.Trace != "" {
		obs.Tracer = NewTracer(0)
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
		fmt.Fprintf(os.Stderr, "%s: observers on http://%s (/metrics, /debug/pprof/)\n", name, obs.addr)
	}
	var stopFlight func()
	obs.Flight, stopFlight = startFlight(o.Flight)

	obs.stop = sync.OnceValue(func() error {
		if srv != nil {
			srv.Close()
			<-served
		}
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

// Handle registers /metrics on mux.
func (obs *Observers) Handle(mux *http.ServeMux) {
	mux.Handle("/metrics", Handler(obs.Registry))
}

// Stop closes the listener, disarms the flight recorder and writes the
// trace. It is idempotent and safe to call concurrently: every call
// returns the first call's error.
func (obs *Observers) Stop() error { return obs.stop() }
