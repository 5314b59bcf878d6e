// Package dist is the deterministic randomness substrate of the
// repository: a splittable random stream plus the noise and data
// distributions every mechanism, generator and experiment draws from.
//
// # The stream contract
//
// Every randomized operation in this repository takes an explicit
// *Stream. A Stream has an immutable identity (derived from its seed and
// the chain of Split labels that produced it) and a mutable draw
// position. The two rules that make whole experiments reproducible are:
//
//  1. Determinism: a stream's draw sequence is a pure function of its
//     identity. NewStreamFromSeed(42).Float64() is the same number on
//     every machine, architecture and run. (Integer and uniform draws
//     are exact everywhere; samplers that go through math.Log/Exp/Atan
//     inherit Go's transcendental implementations, which can differ in
//     the last ulp on ports with assembly math routines — bit-exact
//     reproducibility for those is per-architecture.)
//
//  2. Split purity: Split and SplitIndex derive the child's identity
//     from the parent's identity only — not from how many draws the
//     parent (or any sibling) has made. s.Split("workers") denotes the
//     same stream no matter when it is called, so independent
//     subsystems can re-derive their stream from a shared root without
//     coordinating draw order.
//
// Children with different labels (or indices) are statistically
// independent of each other and of the parent's own draw sequence; the
// golden-vector tests pin both properties.
//
// Sampler versioning: the mapping from uniform bits to a sampler's
// variates is part of the contract, and changing it is a versioned
// event recorded in the golden vectors. The current generalized-Cauchy
// sampler is v2 (PR 4: table-seeded quantile inversion, survival-
// function series cutoff at z = 12); its draws can differ from v1 in
// the last ulp, so the v1 golden vector was retired with a DESIGN.md §7
// contract note. All other samplers remain v1, bit-identical to their
// first release.
//
// # Samplers
//
// Noise distributions (Laplace, GenCauchy) expose Sample together with
// the closed forms the mechanisms need (PDF, Quantile); their CDFs and
// the KolmogorovSmirnov goodness-of-fit check live with the sampler
// tests. Data distributions (LogNormal, Pareto, SkewedSize, GapUniform)
// model the synthetic LODES inputs and the SDL distortion factors.
package dist
