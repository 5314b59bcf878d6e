// Package privacy encodes the paper's privacy-definition layer: the three
// statutory requirements of Section 4, the privacy definitions of
// Sections 5–7 and which requirements each satisfies (Table 1), the
// minimum-ε computation behind Table 2, the composition theorems of
// Section 7.3, Bayes-factor semantics (Section 7.2), and a budget
// accountant for multi-release workflows.
package privacy

import "fmt"

// Requirement is one of the three statutory privacy requirements of
// Section 4.2, derived from Title 13 Section 9 as interpreted by the
// Census Bureau's Disclosure Review Board.
type Requirement int

const (
	// ReqEmployee (Definition 4.1): no re-identification of individuals —
	// an informed attacker's Bayes factor about any worker record is
	// bounded by e^ε.
	ReqEmployee Requirement = iota
	// ReqEmployerSize (Definition 4.2): no precise inference of
	// establishment size — the Bayes factor between sizes within a
	// multiplicative (1+α) window is bounded by e^ε.
	ReqEmployerSize
	// ReqEmployerShape (Definition 4.3): no precise inference of the
	// establishment's workforce composition.
	ReqEmployerShape
	numRequirements
)

// String returns the requirement's short label.
func (r Requirement) String() string {
	switch r {
	case ReqEmployee:
		return "individuals"
	case ReqEmployerSize:
		return "employer-size"
	case ReqEmployerShape:
		return "employer-shape"
	}
	return fmt.Sprintf("Requirement(%d)", int(r))
}

// Requirements returns all three requirements in Table 1 order.
func Requirements() []Requirement {
	return []Requirement{ReqEmployee, ReqEmployerSize, ReqEmployerShape}
}

// Definition identifies a privacy definition (or SDL scheme) from Table 1.
type Definition int

const (
	// InputNoiseInfusion is the current SDL protection (Section 5).
	InputNoiseInfusion Definition = iota
	// EdgeDP is differential privacy on individuals (edge-DP on the
	// bipartite graph, Section 6).
	EdgeDP
	// NodeDP is differential privacy on establishments (node-DP,
	// Section 6).
	NodeDP
	// StrongEREE is (α,ε)-ER-EE privacy (Definition 7.2).
	StrongEREE
	// WeakEREE is weak (α,ε)-ER-EE privacy (Definition 7.4).
	WeakEREE
	numDefinitions
)

// String returns the definition's name as used in Table 1.
func (d Definition) String() string {
	switch d {
	case InputNoiseInfusion:
		return "Input Noise Infusion"
	case EdgeDP:
		return "Differential Privacy (individuals)"
	case NodeDP:
		return "Differential Privacy (establishments)"
	case StrongEREE:
		return "ER-EE-privacy"
	case WeakEREE:
		return "Weak ER-EE privacy"
	}
	return fmt.Sprintf("Definition(%d)", int(d))
}

// Definitions returns all definitions in Table 1 row order.
func Definitions() []Definition {
	return []Definition{InputNoiseInfusion, EdgeDP, NodeDP, StrongEREE, WeakEREE}
}

// Satisfaction is a tri-state answer to "does definition D satisfy
// requirement R?".
type Satisfaction int

const (
	// No: the requirement is not satisfied (a counterexample exists).
	No Satisfaction = iota
	// Yes: the requirement is satisfied against all informed attackers.
	Yes
	// YesWeakAdversary: satisfied only against the weak attackers of
	// Θ_weak (Table 1's starred entry).
	YesWeakAdversary
)

// String renders the satisfaction as in Table 1.
func (s Satisfaction) String() string {
	switch s {
	case No:
		return "No"
	case Yes:
		return "Yes"
	case YesWeakAdversary:
		return "Yes*"
	}
	return fmt.Sprintf("Satisfaction(%d)", int(s))
}

// Satisfies returns Table 1's entry for (definition, requirement):
//
//	                         Individuals  Emp.Size  Emp.Shape
//	Input Noise Infusion     No           No        No
//	DP (individuals/edge)    Yes          No        No
//	DP (establishments/node) Yes          Yes       Yes
//	ER-EE privacy            Yes          Yes       Yes
//	Weak ER-EE privacy       Yes          Yes*      Yes
//
// The justifications are: Section 5.2's attacks (row 1), Claim B.1
// (rows 2–3), Theorem 7.1 (row 4) and Theorem 7.2 (row 5).
func Satisfies(d Definition, r Requirement) Satisfaction {
	switch d {
	case InputNoiseInfusion:
		return No
	case EdgeDP:
		if r == ReqEmployee {
			return Yes
		}
		return No
	case NodeDP, StrongEREE:
		return Yes
	case WeakEREE:
		if r == ReqEmployerSize {
			return YesWeakAdversary
		}
		return Yes
	}
	panic(fmt.Sprintf("privacy: unknown definition %d", int(d)))
}
