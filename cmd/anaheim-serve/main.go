// Command anaheim-serve runs the FHE serving runtime as an HTTP/JSON
// service. Clients create a session by uploading their evaluation keys
// (relinearization + Galois, and a bootstrap section for sessions that
// bootstrap; the secret key never leaves the client), then submit op-DAG
// jobs over base64-encoded ciphertexts and poll for results.
//
// Usage:
//
//	anaheim-serve -addr :8080 -workers 4 -maxjobs 64 -tenantjobs 16 \
//	    -cachebytes 1073741824 -retainbytes 67108864 -retainfor 2m
//
// Endpoints:
//
//	GET    /healthz
//	GET    /metrics                       Prometheus text-format metrics
//	GET    /debug/spans                   recent job/op span trace (text table)
//	POST   /v1/sessions                   create a session from evaluation keys
//	DELETE /v1/sessions/{sid}             detach a session, freeing its keys
//	POST   /v1/sessions/{sid}/transforms  register a named linear transform
//	POST   /v1/sessions/{sid}/jobs        submit a job (tier: latency|standard|batch;
//	                                      429 + Retry-After when saturated)
//	GET    /v1/jobs/{id}                  poll job status
//	GET    /v1/jobs/{id}/result           fetch output ciphertexts
//	DELETE /v1/jobs/{id}                  release a job (cancels it if still running)
//
// A finished job stays fetchable until -retainfor has passed or newer results
// push the total past -retainbytes; after that (or after DELETE) its id
// answers 410 Gone. An id that was never issued answers 404.
//
// Sessions live in one LRU bounded by -cachebytes of evaluation keys. A
// session with a job in flight is never evicted; one evicted to make room (or
// detached with DELETE) answers 404 from then on, and the client creates it
// again. A free worker takes the next ready op from the tier queues, latency
// tier first by weight.
//
// With -pprof ADDR, net/http/pprof is served on a side listener so
// profiling traffic never competes with (or exposes itself to) the public
// serving port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/anaheim-sim/anaheim/internal/engine"
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/trace"
)

type serveConfig struct {
	addr        string
	pprofAddr   string
	workers     int
	maxJobs     int
	maxBody     int64
	deadline    time.Duration
	cacheBytes  int64
	tenantJobs  int
	retainBytes int64
	retainFor   time.Duration
}

func parseFlags(args []string) (serveConfig, error) {
	fs := flag.NewFlagSet("anaheim-serve", flag.ContinueOnError)
	cfg := serveConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "side-port address for net/http/pprof (empty = disabled)")
	fs.IntVar(&cfg.workers, "workers", 0, "op worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.maxJobs, "maxjobs", 0, "max in-flight jobs before 429 (0 = default)")
	fs.Int64Var(&cfg.maxBody, "maxbody", 0, "max request body bytes before 413 (0 = 64MiB)")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "default per-job deadline (0 = engine default)")
	fs.Int64Var(&cfg.cacheBytes, "cachebytes", 0, "eval-key cache byte budget; LRU sessions evicted beyond it (0 = 1GiB)")
	fs.IntVar(&cfg.tenantJobs, "tenantjobs", 0, "max in-flight jobs per session before 429 (0 = default 16)")
	fs.Int64Var(&cfg.retainBytes, "retainbytes", 0, "output bytes finished jobs may hold before the oldest are reaped (0 = 64MiB)")
	fs.DurationVar(&cfg.retainFor, "retainfor", 0, "how long a finished job stays fetchable before it is reaped (0 = the default deadline)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// observedMux wraps the engine's API with the observability endpoints.
func observedMux(e *engine.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", engine.NewHTTPHandler(e))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, trace.SpanTable(obs.DefaultTracer.Snapshot()).String())
	})
	return mux
}

// pprofMux builds an explicit pprof mux so the profiling handlers bind only
// to the side listener, never to the public serving mux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run starts the engine and HTTP server and blocks until ctx is cancelled,
// then drains both. Split from main so tests can drive it.
func run(ctx context.Context, cfg serveConfig, ready chan<- string) error {
	e := engine.New(engine.Config{
		Workers:           cfg.workers,
		MaxActiveJobs:     cfg.maxJobs,
		MaxBodyBytes:      cfg.maxBody,
		DefaultDeadline:   cfg.deadline,
		SessionCacheBytes: cfg.cacheBytes,
		MaxJobsPerTenant:  cfg.tenantJobs,

		RetainedResultBytes: cfg.retainBytes,
		RetainFor:           cfg.retainFor,
	})
	defer e.Close()

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           observedMux(e),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("anaheim-serve: listen %s: %w", cfg.addr, err)
	}
	log.Printf("anaheim-serve: listening on %s", ln.Addr())

	var pprofSrv *http.Server
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("anaheim-serve: pprof listen %s: %w", cfg.pprofAddr, err)
		}
		pprofSrv = &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		log.Printf("anaheim-serve: pprof on %s", pln.Addr())
		go pprofSrv.Serve(pln)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if pprofSrv != nil {
			pprofSrv.Shutdown(shutCtx)
		}
		return srv.Shutdown(shutCtx)
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}
