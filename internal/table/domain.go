// Package table provides the relational substrate of the reproduction:
// typed categorical attribute domains, schemas, columnar tables of coded
// records, and the marginal-query engine of Definition 2.1 of the paper
// ("SELECT COUNT(*) FROM D GROUP BY A_i1, ..., A_im").
//
// The engine also tracks, for every cell of a marginal, the maximum
// contribution of any single entity (establishment) to that cell. That
// per-cell quantity, written x_v in the paper, is exactly what determines
// the smooth sensitivity of the count query (Lemma 8.5), so computing it
// during aggregation is what lets the mechanisms in internal/mech calibrate
// their noise per cell.
package table

import (
	"fmt"
	"sort"
)

// Domain is a named categorical attribute domain: an ordered list of
// distinct values. Records store value codes (indexes into Values), which
// keeps tables compact and makes cell keys cheap to compute.
type Domain struct {
	Name   string
	Values []string

	index map[string]int
}

// NewDomain builds a domain from a name and its values. Values must be
// non-empty and distinct.
func NewDomain(name string, values ...string) *Domain {
	if name == "" {
		panic("table: domain name must be non-empty")
	}
	if len(values) == 0 {
		panic(fmt.Sprintf("table: domain %q must have at least one value", name))
	}
	idx := make(map[string]int, len(values))
	for i, v := range values {
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("table: domain %q has duplicate value %q", name, v))
		}
		idx[v] = i
	}
	return &Domain{Name: name, Values: values, index: idx}
}

// Size returns the number of values in the domain.
func (d *Domain) Size() int { return len(d.Values) }

// Code returns the code of value v, or an error if v is not in the domain.
func (d *Domain) Code(v string) (int, error) {
	c, ok := d.index[v]
	if !ok {
		return 0, fmt.Errorf("table: value %q not in domain %q", v, d.Name)
	}
	return c, nil
}

// MustCode is Code but panics on unknown values; for use with trusted
// literals in tests and generators.
func (d *Domain) MustCode(v string) int {
	c, err := d.Code(v)
	if err != nil {
		panic(err)
	}
	return c
}

// Value returns the value with the given code.
func (d *Domain) Value(code int) string {
	if code < 0 || code >= len(d.Values) {
		panic(fmt.Sprintf("table: code %d out of range for domain %q (size %d)", code, d.Name, len(d.Values)))
	}
	return d.Values[code]
}

// SortedValues returns the domain values in lexicographic order, without
// mutating the domain. Useful for deterministic output formatting.
func (d *Domain) SortedValues() []string {
	out := make([]string, len(d.Values))
	copy(out, d.Values)
	sort.Strings(out)
	return out
}
