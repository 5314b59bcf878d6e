// Package config holds the ereeserve server configuration: the listen
// address, the dataset the publisher serves, the admin key, and the
// tenant roster — one API key and one private (definition, α, budget)
// accountant per tenant.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/privacy"
)

// Definition tokens as written in config files and reported over the
// wire. These are deliberately short machine tokens, distinct from the
// Table 1 display names privacy.Definition.String() renders.
const (
	DefStrongEREE = "strong-er-ee"
	DefWeakEREE   = "weak-er-ee"
	DefEdgeDP     = "edge-dp"
	DefNodeDP     = "node-dp"
)

// ParseDefinition resolves a config/wire definition token.
func ParseDefinition(tok string) (privacy.Definition, error) {
	switch tok {
	case DefStrongEREE:
		return privacy.StrongEREE, nil
	case DefWeakEREE:
		return privacy.WeakEREE, nil
	case DefEdgeDP:
		return privacy.EdgeDP, nil
	case DefNodeDP:
		return privacy.NodeDP, nil
	}
	return 0, fmt.Errorf("config: unknown privacy definition %q (want %s|%s|%s|%s)",
		tok, DefStrongEREE, DefWeakEREE, DefEdgeDP, DefNodeDP)
}

// DefinitionToken renders a definition as its config/wire token.
func DefinitionToken(d privacy.Definition) string {
	switch d {
	case privacy.StrongEREE:
		return DefStrongEREE
	case privacy.WeakEREE:
		return DefWeakEREE
	case privacy.EdgeDP:
		return DefEdgeDP
	case privacy.NodeDP:
		return DefNodeDP
	}
	return fmt.Sprintf("definition-%d", int(d))
}

// Tenant configures one API consumer: its (non-secret) name, its secret
// API key, and the budget accountant it is charged against.
type Tenant struct {
	Name string `json:"name"`
	Key  string `json:"key"`
	// Definition is the budget's privacy definition token (the
	// accountant accepts releases under definitions at least as strong;
	// a weak-er-ee budget is the permissive serving default).
	Definition string `json:"definition"`
	// Alpha is the accountant's establishment-size protection window
	// (ignored for the graph-DP definitions).
	Alpha       float64 `json:"alpha"`
	BudgetEps   float64 `json:"budget_eps"`
	BudgetDelta float64 `json:"budget_delta"`
}

// Config is the full server configuration.
type Config struct {
	// Addr is the listen address, e.g. ":8080".
	Addr string `json:"addr"`
	// AdminKey authorizes the /v1/admin endpoints (epoch advances).
	AdminKey string `json:"admin_key"`
	// NoiseSeed roots the server's noise streams. Tenant t's request
	// seq draws from Split("tenant:"+t).SplitIndex("req", seq) of this
	// root, so the same seed, tenant roster and per-tenant request
	// sequences reproduce every released value bit for bit.
	NoiseSeed int64 `json:"noise_seed"`
	// DataDir loads a CSV snapshot written by lodesgen; when empty a
	// synthetic snapshot is generated from DataSeed at DataScale.
	DataDir   string `json:"data_dir"`
	DataSeed  int64  `json:"data_seed"`
	DataScale string `json:"data_scale"` // "test" (~40k jobs) or "default" (~0.4M jobs)
	// DeltaSeed roots admin-advance delta generation (seed + quarter
	// index per quarter), so an advance sequence is reproducible too.
	DeltaSeed int64 `json:"delta_seed"`
	// StateDir, when set, makes budget accounting durable: every charge
	// is written ahead to a log under this directory and recovered on
	// restart. Empty means in-memory accounting (budgets reset on
	// restart) — fine for demos, not for real budgets.
	StateDir string `json:"state_dir"`
	// ReplicateFrom, when set, boots this node as a follower mirroring
	// the primary at this base URL (e.g. "http://primary:8080"). Requires
	// state_dir and admin_key — the replication endpoints authenticate
	// with the shared admin key. The follower serves reads, sheds spend
	// traffic with a hint to the primary, and takes over on
	// POST /v1/admin/promote.
	ReplicateFrom string   `json:"replicate_from"`
	Tenants       []Tenant `json:"tenants"`
}

// Default returns the baseline configuration with no tenants: test
// scale, fixed seeds, localhost-ish defaults. Callers add tenants.
func Default() Config {
	return Config{
		Addr:      ":8080",
		AdminKey:  "",
		NoiseSeed: 7,
		DataSeed:  1,
		DataScale: "test",
		DeltaSeed: 100,
	}
}

// Demo returns a runnable single-machine configuration: two tenants
// with effectively unbounded budgets (load generation) and a fixed
// admin key. Not for production — every key is public.
func Demo() Config {
	c := Default()
	c.AdminKey = "admin-demo-key"
	c.Tenants = []Tenant{
		{Name: "alpha", Key: "tenant-alpha-key", Definition: DefWeakEREE, Alpha: 0.1, BudgetEps: 1e9, BudgetDelta: 0.5},
		{Name: "beta", Key: "tenant-beta-key", Definition: DefWeakEREE, Alpha: 0.1, BudgetEps: 1e9, BudgetDelta: 0.5},
	}
	return c
}

// Load reads a JSON configuration file. Unknown fields are rejected so
// a typo'd budget field cannot silently grant an unbounded budget.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	c := Default()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the configuration for the mistakes that would
// otherwise surface as confusing runtime behavior.
func (c Config) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("config: addr must be set")
	}
	switch c.DataScale {
	case "test", "default":
	default:
		return fmt.Errorf("config: data_scale must be \"test\" or \"default\", got %q", c.DataScale)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("config: at least one tenant is required")
	}
	if c.ReplicateFrom != "" {
		if c.StateDir == "" {
			return fmt.Errorf("config: replicate_from requires state_dir (the follower mirrors the primary's log durably)")
		}
		if c.AdminKey == "" {
			return fmt.Errorf("config: replicate_from requires admin_key (replication endpoints authenticate with it)")
		}
	}
	for i, t := range c.Tenants {
		if _, err := ParseDefinition(t.Definition); err != nil {
			return fmt.Errorf("config: tenant %d (%s): %w", i, t.Name, err)
		}
		if t.Key == c.AdminKey && c.AdminKey != "" {
			return fmt.Errorf("config: tenant %q reuses the admin key", t.Name)
		}
	}
	return nil
}

// BuildRegistry constructs the tenant registry: one accountant per
// configured tenant. Name/key uniqueness and budget validity are
// enforced by the underlying constructors.
func (c Config) BuildRegistry() (*privacy.Registry, error) {
	reg := privacy.NewRegistry()
	for _, t := range c.Tenants {
		def, err := ParseDefinition(t.Definition)
		if err != nil {
			return nil, err
		}
		acct, err := privacy.NewAccountant(def, t.Alpha, t.BudgetEps, t.BudgetDelta)
		if err != nil {
			return nil, fmt.Errorf("config: tenant %q: %w", t.Name, err)
		}
		if _, err := reg.Register(t.Name, t.Key, acct); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
	}
	return reg, nil
}
