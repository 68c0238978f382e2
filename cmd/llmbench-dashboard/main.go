// Command llmbench-dashboard serves the interactive dashboard: a
// browser UI that regenerates and charts every reproduced figure of
// the paper (the open-source artifact the paper ships alongside its
// results).
//
// Usage:
//
//	llmbench-dashboard [-addr :8080] [-j N]
//
// -j bounds the worker pool interactive regeneration fans out on
// (custom sweeps, /api/run?id=all); values below 1 mean every core.
// A single serving simulation (/api/serve) runs on one core.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"llmbench/internal/dashboard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	parallelism := flag.Int("j", 0, "regeneration workers (<1 = all cores)")
	flag.Parse()
	url := *addr
	if strings.HasPrefix(url, ":") {
		url = "localhost" + url
	}
	fmt.Printf("LLM-Inference-Bench dashboard on http://%s\n", url)
	if err := http.ListenAndServe(*addr, dashboard.Handler(*parallelism)); err != nil {
		fmt.Fprintln(os.Stderr, "llmbench-dashboard:", err)
		os.Exit(1)
	}
}
