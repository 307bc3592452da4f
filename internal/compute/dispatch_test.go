package compute

import "testing"

func TestDispatchPolicyValidate(t *testing.T) {
	if err := DefaultDispatchPolicy().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	bad := []DispatchPolicy{
		{Mode: DispatchMode(42)},
		{MatMulThreshold: -0.1},
		{ConvThreshold: 1.5},
		{PoolThreshold: nan()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d validated: %+v", i, p)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestSetDispatchPolicyPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetDispatchPolicy accepted an invalid policy")
		}
	}()
	SetDispatchPolicy(DispatchPolicy{MatMulThreshold: 2})
}

func TestUseSparse(t *testing.T) {
	defer SetDispatchPolicy(DefaultDispatchPolicy())

	SetDispatchPolicy(DispatchPolicy{Mode: DispatchAdaptive, MatMulThreshold: 0.4, ConvThreshold: 0.6, PoolThreshold: 1})
	for _, tc := range []struct {
		f       KernelFamily
		density float64
		want    bool
	}{
		{KernelMatMul, 0, true},
		{KernelMatMul, 0.4, true}, // at the threshold: sparse
		{KernelMatMul, 0.41, false},
		{KernelConv, 0.5, true},
		{KernelConv, 0.7, false},
		{KernelPool, 1, true}, // pool threshold 1: always sparse
	} {
		if got := UseSparse(tc.f, tc.density); got != tc.want {
			t.Errorf("UseSparse(%v, %g) = %v, want %v", tc.f, tc.density, got, tc.want)
		}
	}
	if !PackSpikePlanes() {
		t.Error("adaptive mode must keep producers packing")
	}

	SetDispatchPolicy(DispatchPolicy{Mode: DispatchSparse})
	if !UseSparse(KernelMatMul, 1) || !PackSpikePlanes() {
		t.Error("DispatchSparse must force the spike kernels")
	}

	SetDispatchPolicy(DispatchPolicy{Mode: DispatchDense})
	if UseSparse(KernelMatMul, 0) || PackSpikePlanes() {
		t.Error("DispatchDense must force the dense kernels and stop packing")
	}
}
