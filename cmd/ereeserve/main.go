// Command ereeserve runs the multi-tenant HTTP release service: one
// publisher over one versioned LODES dataset, one budget accountant per
// tenant, and an admin endpoint that absorbs quarterly deltas under
// live load without stalling in-flight releases.
//
// Usage:
//
//	ereeserve -demo                      # two demo tenants, generated data
//	ereeserve -config server.json        # full configuration from a file
//	ereeserve -demo -addr :9090          # override the listen address
//	ereeserve -demo -state-dir ./state   # durable, crash-safe accounting
//	ereeserve -demo -state-dir ./f -addr :9091 \
//	          -replicate-from http://localhost:9090   # hot-standby follower
//
// With -state-dir (or "state_dir" in the config) every budget charge is
// written ahead to a log before its response leaves the process, and a
// restart recovers the exact accounting state — kill -9 included. The
// server is not ready (GET /readyz) until recovery finishes, and
// SIGTERM/SIGINT drain gracefully: in-flight requests complete, new
// ones are refused, then the log is compacted and closed.
//
// See cmd/ereeserve/config for the configuration schema and
// cmd/ereeserve/server for the endpoints and the wire determinism
// contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/ereeserve/config"
	"repro/cmd/ereeserve/server"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ereeserve: ")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil {
		log.Fatal(err)
	}
}

// shutdownGrace bounds the drain: in-flight requests get this long to
// finish before the listener is torn down under them.
const shutdownGrace = 30 * time.Second

// run is the whole command behind a testable seam: tests pass their own
// signal channel to drive shutdown and read the bound address (the
// "listening on" line supports ":0") from out.
func run(args []string, out io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("ereeserve", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "JSON configuration file (see cmd/ereeserve/config)")
	demo := fs.Bool("demo", false, "serve the built-in two-tenant demo configuration")
	addr := fs.String("addr", "", "override the configured listen address")
	stateDir := fs.String("state-dir", "", "directory for durable accounting state (overrides the configured state_dir)")
	replicateFrom := fs.String("replicate-from", "", "boot as a follower mirroring the primary at this base URL (overrides the configured replicate_from)")
	replPoll := fs.Duration("repl-poll", 0, "follower poll interval for the primary's replication stream, 0 = default (250ms)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("invalid arguments")
	}

	var cfg config.Config
	switch {
	case *cfgPath != "" && *demo:
		return fmt.Errorf("-config and -demo are mutually exclusive")
	case *cfgPath != "":
		var err error
		if cfg, err = config.Load(*cfgPath); err != nil {
			return err
		}
	case *demo:
		cfg = config.Demo()
	default:
		return fmt.Errorf("one of -config or -demo is required")
	}
	if *addr != "" {
		cfg.Addr = *addr
	}
	if *stateDir != "" {
		cfg.StateDir = *stateDir
	}
	if *replicateFrom != "" {
		cfg.ReplicateFrom = *replicateFrom
	}
	if cfg.ReplicateFrom != "" {
		// Re-check the follower invariants after flag overrides.
		if err := cfg.Validate(); err != nil {
			return err
		}
	}

	data, err := buildDataset(cfg)
	if err != nil {
		return err
	}
	reg, err := cfg.BuildRegistry()
	if err != nil {
		return err
	}
	srv, err := server.Open(core.NewPublisher(data), reg, server.Options{
		NoiseSeed:     cfg.NoiseSeed,
		AdminKey:      cfg.AdminKey,
		DeltaSeed:     cfg.DeltaSeed,
		StateDir:      cfg.StateDir,
		ReplicateFrom: cfg.ReplicateFrom,
		ReplPoll:      *replPoll,
	})
	if err != nil {
		return err
	}
	svc, err := srv.Start(cfg.Addr, server.RunOptions{})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "serving %d jobs / %d establishments for %d tenant(s)\n",
		data.NumJobs(), data.NumEstablishments(), reg.Len())
	if cfg.StateDir != "" {
		fmt.Fprintf(out, "durable accounting under %s\n", cfg.StateDir)
	}
	if cfg.ReplicateFrom != "" {
		fmt.Fprintf(out, "follower: replicating from %s\n", cfg.ReplicateFrom)
	}
	fmt.Fprintf(out, "listening on %s\n", svc.Addr())

	select {
	case err := <-svc.Done():
		return err
	case <-sig:
		fmt.Fprintln(out, "shutting down: draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return svc.Shutdown(ctx)
	}
}

// buildDataset loads the configured CSV snapshot, or generates a
// synthetic one from the configured seed and scale.
func buildDataset(cfg config.Config) (*lodes.Dataset, error) {
	if cfg.DataDir != "" {
		return lodes.ReadCSV(cfg.DataDir)
	}
	gen := lodes.TestConfig()
	if cfg.DataScale == "default" {
		gen = lodes.DefaultConfig()
	}
	return lodes.Generate(gen, dist.NewStreamFromSeed(cfg.DataSeed))
}
