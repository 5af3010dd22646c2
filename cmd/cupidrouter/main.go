// Command cupidrouter fronts a cluster of cupidd shards with a single
// schema-matching endpoint. The corpus is partitioned by a consistent-hash
// ring over schema names: registrations (POST /schemas) and per-schema
// reads (GET /schemas/{name}, DELETE /schemas/{name}) are forwarded to the
// owning shard, GET /schemas merges every member's listing, and
// POST /match/batch is scatter-gathered — every shard ranks the source
// against its partition and the router merges the per-shard top-K into one
// global ranking that is element-for-element identical to a single node
// holding the whole corpus. A shard that misses the match deadline is shed:
// the response carries the surviving shards' merged results with
// "degraded": true and a per-shard status list instead of hanging.
// The HTTP contract is cupidd's, served by the same code in
// internal/serve: compact one-line JSON replies, JSON errors (404 and 405
// included), the -max-body 413,
// 429 + Retry-After when the admission queue sheds, and GET /healthz and
// GET /readyz probes that work against either binary.
//
// Flags:
//
//	-addr            listen address (default :8437)
//	-shards          comma-separated cupidd base URLs (required)
//	-vnodes          virtual nodes per shard on the placement ring
//	-concurrency     concurrent scatter-gather matches admitted
//	-queue-depth     bounded admission queue; beyond it arrivals get 429
//	-queue-wait      max queueing latency before a 429 with Retry-After
//	-match-deadline  end-to-end deadline per scatter-gather match
//	-max-body        request body cap in bytes (413 beyond)
//
// SIGTERM/SIGINT run the shared drain loop: new work is refused with 503
// while in-flight fan-outs finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

type options struct {
	addr   string
	shards string
	vnodes int
	// Flags are the serving flags cupidrouter shares with cupidd.
	serve.Flags
}

func newFlagSet() (*flag.FlagSet, *options) {
	opt := &options{}
	fs := flag.NewFlagSet("cupidrouter", flag.ContinueOnError)
	fs.StringVar(&opt.addr, "addr", ":8437", "listen address")
	fs.StringVar(&opt.shards, "shards", "", "comma-separated base URLs of the cupidd shards the ring partitions the corpus over (required)")
	fs.IntVar(&opt.vnodes, "vnodes", cluster.DefaultVnodes, "virtual nodes per shard on the consistent-hash placement ring")
	opt.Flags.Register(fs)
	return fs, opt
}

// routerFromOptions validates the flag set into a running router.
func routerFromOptions(opt *options) (*cluster.Router, error) {
	if strings.TrimSpace(opt.shards) == "" {
		return nil, errors.New("-shards is required (comma-separated cupidd base URLs)")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	var urls []string
	for _, s := range strings.Split(opt.shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}
	return cluster.NewRouter(cluster.Options{
		Shards:        urls,
		Vnodes:        opt.vnodes,
		Read:          opt.ReadPool(),
		MatchDeadline: opt.MatchDeadline,
		MaxBody:       opt.MaxBody,
	})
}

func run(args []string) error {
	fs, opt := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	rt, err := routerFromOptions(opt)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              opt.addr,
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("cupidrouter: routing over %d shards, listening on %s", len(rt.Shards()), opt.addr)
	return serve.ListenAndDrain(ctx, srv, func() {
		stop()
		log.Print("cupidrouter: shutting down: draining in-flight fan-outs, rejecting new ones with 503")
		rt.BeginDrain()
	})
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cupidrouter:", err)
		os.Exit(1)
	}
}
