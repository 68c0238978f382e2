// Command llmbench-dashboard serves the interactive dashboard: a
// browser UI that regenerates and charts every reproduced figure of
// the paper (the open-source artifact the paper ships alongside its
// results).
//
// Usage:
//
//	llmbench-dashboard [-addr localhost:8080] [-j N]
//
// -addr defaults to the loopback interface; pass e.g. -addr :8080 to
// listen on every interface. -j bounds the worker pool interactive
// regeneration fans out on (custom sweeps, /api/run?id=all); values
// below 1 mean every core. A single serving simulation (/api/serve)
// runs on one core.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"llmbench/internal/dashboard"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address (host:port; an empty host listens on every interface)")
	parallelism := flag.Int("j", 0, "regeneration workers (<1 = all cores)")
	flag.Parse()
	url := *addr
	if strings.HasPrefix(url, ":") {
		url = "localhost" + url
	}
	fmt.Printf("LLM-Inference-Bench dashboard on http://%s\n", url)
	if err := newServer(*addr, dashboard.Handler(*parallelism)).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "llmbench-dashboard:", err)
		os.Exit(1)
	}
}

// newServer wraps h in a server whose timeouts bound what a slow or
// idle client can hold open. Every dashboard request is a GET without
// a body, so reading one is quick. There is no WriteTimeout: the
// largest bounded /api/servesweep request (64 grid points replaying a
// 64 MiB trace with stream=1, millions of requests per point) runs for
// minutes, and a write deadline shorter than that would drop the
// response after the work is done.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
