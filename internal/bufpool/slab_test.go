package bufpool

import "testing"

func TestGetSlabLengthAndClass(t *testing.T) {
	cases := []struct {
		n, wantCap int
	}{
		{0, slab8K},
		{1, slab8K},
		{slab8K, slab8K},
		{slab8K + 1, slab64K},
		{slab64K, slab64K},
		{slab64K + 1, slab128K},
		{slab128K, slab128K},
		{slab128K + 1, slab256K},
		{slab256K, slab256K},
		{slab256K + 1, slab512K},
		{slab512K, slab512K},
		{slabMax, slabMax},
	}
	for _, tc := range cases {
		b := GetSlab(tc.n)
		if len(b) != tc.n {
			t.Fatalf("GetSlab(%d) len = %d, want %d", tc.n, len(b), tc.n)
		}
		if cap(b) != tc.wantCap {
			t.Fatalf("GetSlab(%d) cap = %d, want class %d", tc.n, cap(b), tc.wantCap)
		}
		PutSlab(b)
	}
}

func TestGetSlabOversizedFallsBack(t *testing.T) {
	b := GetSlab(slabMax + 1)
	if len(b) != slabMax+1 {
		t.Fatalf("len = %d, want %d", len(b), slabMax+1)
	}
	// Must not panic: the odd capacity matches no class and is dropped.
	PutSlab(b)
}

func TestPutSlabIgnoresForeignCapacities(t *testing.T) {
	// Regrown (append past cap) or resliced buffers no longer match a class
	// size; PutSlab must drop them rather than poison a pool.
	PutSlab(make([]byte, 100))
	PutSlab(nil)
	b := GetSlab(slab8K)
	PutSlab(append(b, make([]byte, slab8K*4)...))
}

func TestSlabReuse(t *testing.T) {
	// Drain-then-return on a private marker: after PutSlab, a same-class
	// GetSlab on the same goroutine should hand the slab back (sync.Pool
	// keeps a per-P private slot), proving bytes actually recycle.
	b := GetSlab(slab8K)
	b[0] = 0xAB
	PutSlab(b)
	c := GetSlab(slab8K)
	if &b[0] != &c[0] {
		t.Skip("pool did not return the same slab (GC or scheduling); nothing to assert")
	}
	if c[0] != 0xAB {
		t.Fatalf("recycled slab lost its bytes")
	}
	PutSlab(c)
}

func TestGetSlabZeroAlloc(t *testing.T) {
	b := GetSlab(slab8K)
	PutSlab(b)
	allocs := testing.AllocsPerRun(1000, func() {
		s := GetSlab(slab8K)
		PutSlab(s)
	})
	if allocs != 0 {
		t.Fatalf("GetSlab/PutSlab cycle allocated %v per run, want 0", allocs)
	}
}
