package core

// Test-only exports for the external core_test package.

// RefFusedAttn and RefFusedAttnBwd are the float64 fused-attention
// references of fusedattn_test.go.
var (
	RefFusedAttn    = refFusedAttn
	RefFusedAttnBwd = refFusedAttnBwd
)
