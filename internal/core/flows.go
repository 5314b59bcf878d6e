package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/privacy"
	"repro/internal/qwi"
)

// ReleaseFlows releases a QWI flow set (B, JC, JD released; E derived)
// under the request's mechanism and parameters, returning the total
// privacy loss: three sequential establishment-only releases, so
// 3·(ε, δ) under strong ER-EE privacy (or edge-DP for the baseline).
func ReleaseFlows(f *qwi.Flows, req Request, s *dist.Stream) (*qwi.FlowRelease, privacy.Loss, error) {
	if req.Mechanism == MechTruncatedLaplace {
		return nil, privacy.Loss{}, fmt.Errorf("core: flow release not defined for truncated-laplace")
	}
	m, err := cellMechanism(req)
	if err != nil {
		return nil, privacy.Loss{}, err
	}
	perRelease := cellLoss(req, definitionFor(req.Mechanism, f.Query.AttrNames()))
	if err := perRelease.Validate(); err != nil {
		return nil, privacy.Loss{}, err
	}
	rel, err := qwi.ReleaseFlows(f, m, s)
	if err != nil {
		return nil, privacy.Loss{}, err
	}
	total := perRelease
	for i := 1; i < rel.ReleaseCount(); i++ {
		total, err = privacy.SequentialCompose(total, perRelease)
		if err != nil {
			return nil, privacy.Loss{}, err
		}
	}
	return rel, total, nil
}
