package checkpoint_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cubism/internal/checkpoint"
	"cubism/internal/grid"
	"cubism/internal/mpi"
)

// fuzzDesc is the geometry every fuzzed file is restored into.
var fuzzDesc = grid.Desc{N: 8, NBX: 2, NBY: 1, NBZ: 1, H: 0.125}

// fuzzSeeds returns a valid v4 file written by Write and a hand-made v3
// file, both of fuzzDesc's geometry, holding a few levels and some
// arbitrary bit patterns so the decoders see literals and matches.
func fuzzSeeds(f *testing.F) (v4, v3 []byte) {
	dir := f.TempDir()
	g := grid.New(fuzzDesc)
	rng := rand.New(rand.NewSource(7))
	for _, b := range g.Blocks {
		for i := range b.Data {
			if rng.Intn(64) == 0 {
				b.Data[i] = math.Float32frombits(rng.Uint32())
			} else {
				b.Data[i] = float32(rng.Intn(4)) * 0.5
			}
		}
	}
	path := filepath.Join(dir, "v4.ckp")
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		if err := checkpoint.Write(comm, path, g, [3]int{1, 1, 1}, 3, 0.5, nil); err != nil {
			f.Error(err)
		}
	})
	v4, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	var payload []byte
	var sizes []int64
	for _, b := range g.Blocks {
		seg := deflate(b.Data)
		payload = append(payload, seg...)
		sizes = append(sizes, int64(len(seg)))
	}
	path = filepath.Join(dir, "v3.ckp")
	writeCrafted(f, path, map[string]any{
		"version":       3,
		"block_size":    fuzzDesc.N,
		"rank_dims":     [3]int{1, 1, 1},
		"global_blocks": [3]int{2, 1, 1},
		"blocks":        [][]int64{{0, 1}},
		"segments":      [][]int64{sizes},
		"step":          3,
		"time":          0.5,
	}, [][]byte{payload})
	v3, err = os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return v4, v3
}

// FuzzRestore: Restore of any byte string returns nil or an error, never
// panics, and no size a header or segment table claims makes it allocate
// far beyond the file: the bound is a fixed 1 MiB for the decoders' state
// plus a multiple of the file's size for parsing the header.
func FuzzRestore(f *testing.F) {
	v4, v3 := fuzzSeeds(f)
	for _, file := range [][]byte{v4, v3} {
		f.Add(file)
		for _, frac := range []float64{0.01, 0.1, 0.5, 0.9, 0.999} {
			f.Add(file[:int(math.Round(frac*float64(len(file))))])
		}
	}
	path := filepath.Join(f.TempDir(), "fuzz.ckp")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g := grid.New(fuzzDesc)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := checkpoint.Restore(path, 0, g, nil)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(1<<20 + 32*len(data)); alloc > limit {
			t.Fatalf("restore of a %d-byte file allocated %d bytes, more than %d (err %v)", len(data), alloc, limit, err)
		}
	})
}
