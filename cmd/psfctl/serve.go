package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/api"
	"partsvc/internal/casestudy"
	"partsvc/internal/metrics"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// runServe deploys the case study in-process and serves the
// operational API over it: SSE events, Prometheus /metrics, and the
// management endpoints (plan, deploy, adapt, kill) — a standing
// server to curl against instead of a scripted demo.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	token := fs.String("token", "", "bearer token gating the management endpoints")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/")
	echo := fs.Bool("echo", false, "also print controller events to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := casestudy.New(transport.NewInProc(), "Alice", "Carol")
	if err != nil {
		return err
	}
	// Warm up San Diego so later Seattle sessions anchor onto the sd-2
	// view — the case study's incremental state.
	warm := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	if _, _, err := w.GS.Access(warm); err != nil {
		return err
	}

	ctrl := w.Loop(250)

	registerPoolSection(metrics.DefaultRegistry)
	w.GS.Planner().RegisterSolverMetrics(metrics.DefaultRegistry, "solver")
	srv := api.New(api.Config{
		Addr: *addr, Token: *token, EnablePprof: *pprofOn,
	}, w.Control(ctrl))
	var extra func(adapt.Event)
	if *echo {
		extra = func(e adapt.Event) { fmt.Println(e) }
	}
	srv.Attach(ctrl, extra)
	ctrl.Start()
	defer ctrl.Stop()
	if err := srv.Start(); err != nil {
		return err
	}

	fmt.Printf("operational API on http://%s\n", srv.Addr())
	fmt.Println("  GET  /healthz /metrics /v1/metrics.json /v1/trace /v1/events (SSE)")
	fmt.Println("  GET  /v1/spec /v1/sessions /v1/sessions/{name}")
	fmt.Println("  POST /v1/spec/validate /v1/plan /v1/sessions /v1/sessions/{name}/adapt")
	fmt.Println("  POST /v1/nodes/{id}/kill /v1/net/link   DELETE /v1/sessions/{name}")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("\nshutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}
