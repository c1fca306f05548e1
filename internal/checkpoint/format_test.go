package checkpoint_test

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"cubism/internal/checkpoint"
	"cubism/internal/grid"
	"cubism/internal/mpi"
)

// poolRunner is a checkpoint.Parallel over a fresh goroutine pool whose
// workers race for items, so the block tasks finish in any order.
func poolRunner(workers int) checkpoint.Parallel {
	return func(region string, n int, body func(w, i int)) {
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range ch {
					body(w, i)
				}
			}(w)
		}
		for i := 0; i < n; i++ {
			ch <- i
		}
		close(ch)
		wg.Wait()
	}
}

// seededGrid is a 2×2×2-block grid of 8³ blocks holding seeded values: a
// few levels, so DEFLATE finds matches, plus arbitrary bit patterns (NaN
// payloads, −0) that a restore must reproduce bitwise.
func seededGrid(seed int64) *grid.Grid {
	g := grid.New(grid.Desc{N: 8, NBX: 2, NBY: 2, NBZ: 2, H: 0.0625})
	rng := rand.New(rand.NewSource(seed))
	for _, b := range g.Blocks {
		for i := range b.Data {
			if rng.Intn(8) == 0 {
				b.Data[i] = math.Float32frombits(rng.Uint32())
			} else {
				b.Data[i] = float32(rng.Intn(16)) * 0.25
			}
		}
	}
	return g
}

// writeSerial writes g as a one-rank checkpoint with the given runner.
func writeSerial(t *testing.T, path string, g *grid.Grid, par checkpoint.Parallel) {
	t.Helper()
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		if err := checkpoint.Write(comm, path, g, [3]int{1, 1, 1}, 5, 0.25, par); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
}

// sameBits reports the first value of got that differs bitwise from want.
func sameBits(got, want *grid.Grid) error {
	for bi, b := range want.Blocks {
		for i, v := range b.Data {
			if w, g := math.Float32bits(v), math.Float32bits(got.Blocks[bi].Data[i]); g != w {
				return fmt.Errorf("block %d elem %d: %#x, want %#x", bi, i, g, w)
			}
		}
	}
	return nil
}

// TestCheckpointBytesScheduleIndependent: the per-block v4 segments are
// slotted by block ordinal, so the file is byte-identical whether the
// blocks deflate serially or on pools of 1, 2 and 4 racing workers, and
// it restores bitwise on a pool.
func TestCheckpointBytesScheduleIndependent(t *testing.T) {
	dir := t.TempDir()
	g := seededGrid(3)
	runners := []struct {
		name string
		par  checkpoint.Parallel
	}{{"nil", nil}, {"1", poolRunner(1)}, {"2", poolRunner(2)}, {"4", poolRunner(4)}}
	var want []byte
	for _, r := range runners {
		path := filepath.Join(dir, "w"+r.name+".ckp")
		writeSerial(t, path, g, r.par)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers %s: checkpoint bytes differ from the serial write", r.name)
		}
	}
	path := filepath.Join(dir, "wnil.ckp")
	hdr, err := checkpoint.ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 4 || len(hdr.Segments) != 1 || len(hdr.Segments[0]) != len(g.Blocks) ||
		len(hdr.CRCs) != 1 || len(hdr.CRCs[0]) != len(g.Blocks) {
		t.Fatalf("header version %d with segment tables %v and CRC tables %v, want v4 with %d segments and CRCs",
			hdr.Version, hdr.Segments, hdr.CRCs, len(g.Blocks))
	}
	back := grid.New(grid.Desc{N: 8, NBX: 2, NBY: 2, NBZ: 2, H: 0.0625})
	step, simTime, err := checkpoint.Restore(path, 0, back, poolRunner(3))
	if err != nil {
		t.Fatal(err)
	}
	if step != 5 || simTime != 0.25 {
		t.Errorf("restored (step, time) = (%d, %v), want (5, 0.25)", step, simTime)
	}
	if err := sameBits(back, g); err != nil {
		t.Fatal(err)
	}
}

// writeCrafted writes a checkpoint by hand: the magic, the header length,
// the JSON header hdr and the payloads back to back. It sets hdr's
// "offsets" and "sizes" to match, iterating because the offsets' digits
// change the header length.
func writeCrafted(t testing.TB, path string, hdr map[string]any, payloads [][]byte) {
	t.Helper()
	sizes := make([]int64, len(payloads))
	for r, p := range payloads {
		sizes[r] = int64(len(p))
	}
	hdr["sizes"] = sizes
	offsets := make([]int64, len(payloads))
	var body []byte
	for {
		hdr["offsets"] = offsets
		b, err := json.Marshal(hdr)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]int64, len(payloads))
		pos := int64(len(checkpoint.Magic)) + 4 + int64(len(b))
		for r := range payloads {
			next[r] = pos
			pos += sizes[r]
		}
		if slices.Equal(next, offsets) {
			body = b
			break
		}
		offsets = next
	}
	var file bytes.Buffer
	file.WriteString(checkpoint.Magic)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(body)))
	file.Write(lenBuf[:])
	file.Write(body)
	for _, p := range payloads {
		file.Write(p)
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewrite writes hdr (as ReadHeader returned it, possibly edited) with
// payload through writeCrafted, which fixes up offsets and sizes.
func rewrite(t *testing.T, path string, hdr checkpoint.Header, payload []byte) {
	t.Helper()
	b, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	writeCrafted(t, path, m, [][]byte{payload})
}

// planeSegment is the test's own v4 segment encoder: the byte planes of
// vals (7 values per cell), quantity by quantity, as one raw DEFLATE
// stream at BestSpeed, with extra appended after the stream, and the
// CRC32C of the stored bytes.
func planeSegment(vals []float32, extra ...byte) ([]byte, uint32) {
	const nq = 7
	cells := (len(vals) + nq - 1) / nq
	var planes []byte
	for q := 0; q < nq; q++ {
		for k := 0; k < 4; k++ {
			for c := 0; c < cells; c++ {
				if i := c*nq + q; i < len(vals) {
					planes = append(planes, byte(math.Float32bits(vals[i])>>(8*k)))
				}
			}
		}
	}
	var out bytes.Buffer
	fw, _ := flate.NewWriter(&out, flate.BestSpeed)
	fw.Write(planes)
	fw.Close()
	seg := append(out.Bytes(), extra...)
	return seg, crc32.Checksum(seg, crc32.MakeTable(crc32.Castagnoli))
}

// deflate returns one zlib stream of the little-endian bytes of vals.
func deflate(vals []float32) []byte {
	var out bytes.Buffer
	zw := zlib.NewWriter(&out)
	var word [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
		zw.Write(word[:])
	}
	zw.Close()
	return out.Bytes()
}

// TestRestoreV2File: version-2 checkpoints — one zlib stream per writer
// rank, blocks addressed by per-rank id tables — must still restore
// bitwise. The file is crafted by hand with two writer ranks whose tables
// list the global 2×2×1 box's blocks out of order. A payload whose zlib
// checksum does not match is an error naming the file.
func TestRestoreV2File(t *testing.T) {
	const n = 8
	path := filepath.Join(t.TempDir(), "v2.ckp")
	per := n * n * n * 7
	// Arbitrary bit patterns per (id, element), NaN payloads included.
	blockVal := func(id int64, i int) float32 {
		return math.Float32frombits(uint32(id)<<28 ^ uint32(i)*2654435761)
	}
	tables := [][]int64{{3, 0}, {1, 2}}
	payloads := make([][]byte, len(tables))
	for r, tbl := range tables {
		var vals []float32
		for _, id := range tbl {
			for i := 0; i < per; i++ {
				vals = append(vals, blockVal(id, i))
			}
		}
		payloads[r] = deflate(vals)
	}
	writeCrafted(t, path, map[string]any{
		"version":       2,
		"block_size":    n,
		"rank_dims":     [3]int{2, 1, 1},
		"global_blocks": [3]int{2, 2, 1},
		"blocks":        tables,
		"step":          9,
		"time":          0.75,
	}, payloads)

	g := grid.New(grid.Desc{N: n, NBX: 2, NBY: 2, NBZ: 1, H: 0.125})
	step, simTime, err := checkpoint.Restore(path, 0, g, poolRunner(2))
	if err != nil {
		t.Fatal(err)
	}
	if step != 9 || simTime != 0.75 {
		t.Errorf("restored (step, time) = (%d, %v), want (9, 0.75)", step, simTime)
	}
	for _, b := range g.Blocks {
		id := int64(b.Y*2 + b.X)
		for i, v := range b.Data {
			if got, want := math.Float32bits(v), math.Float32bits(blockVal(id, i)); got != want {
				t.Fatalf("block %d elem %d: %#x, want %#x", id, i, got, want)
			}
		}
	}

	payloads[1][len(payloads[1])-1] ^= 1 // the Adler-32 trailer
	writeCrafted(t, path, map[string]any{
		"version":       2,
		"block_size":    n,
		"rank_dims":     [3]int{2, 1, 1},
		"global_blocks": [3]int{2, 2, 1},
		"blocks":        tables,
	}, payloads)
	if _, _, err := checkpoint.Restore(path, 0, g, nil); err == nil || !strings.Contains(err.Error(), path+": rank 1 payload") {
		t.Fatalf("v2 payload with a bad checksum: error %v, want one naming the file and rank 1's payload", err)
	}
}

// TestRestoreV3File: version-3 checkpoints — one zlib segment of
// interleaved little-endian values per block, per-rank segment-size
// tables, no CRCs — must still restore bitwise, on a pool. The file is
// crafted by hand with two writer ranks whose tables list the global
// 2×2×1 box's blocks out of order; a trailing byte after one segment's
// stream is an error naming that block.
func TestRestoreV3File(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	per := n * n * n * 7
	blockVal := func(id int64, i int) float32 {
		return math.Float32frombits(uint32(id)<<28 ^ uint32(i)*2654435761)
	}
	tables := [][]int64{{3, 0}, {1, 2}}
	craft := func(name string, extra []byte) string {
		path := filepath.Join(dir, name)
		payloads := make([][]byte, len(tables))
		sizes := make([][]int64, len(tables))
		for r, tbl := range tables {
			for _, id := range tbl {
				vals := make([]float32, per)
				for i := range vals {
					vals[i] = blockVal(id, i)
				}
				seg := deflate(vals)
				if id == 2 {
					seg = append(seg, extra...)
				}
				payloads[r] = append(payloads[r], seg...)
				sizes[r] = append(sizes[r], int64(len(seg)))
			}
		}
		writeCrafted(t, path, map[string]any{
			"version":       3,
			"block_size":    n,
			"rank_dims":     [3]int{2, 1, 1},
			"global_blocks": [3]int{2, 2, 1},
			"blocks":        tables,
			"segments":      sizes,
			"step":          9,
			"time":          0.75,
		}, payloads)
		return path
	}

	g := grid.New(grid.Desc{N: n, NBX: 2, NBY: 2, NBZ: 1, H: 0.125})
	step, simTime, err := checkpoint.Restore(craft("v3.ckp", nil), 0, g, poolRunner(2))
	if err != nil {
		t.Fatal(err)
	}
	if step != 9 || simTime != 0.75 {
		t.Errorf("restored (step, time) = (%d, %v), want (9, 0.75)", step, simTime)
	}
	for _, b := range g.Blocks {
		id := int64(b.Y*2 + b.X)
		for i, v := range b.Data {
			if got, want := math.Float32bits(v), math.Float32bits(blockVal(id, i)); got != want {
				t.Fatalf("block %d elem %d: %#x, want %#x", id, i, got, want)
			}
		}
	}

	path := craft("trailing.ckp", []byte{0})
	_, _, err = checkpoint.Restore(path, 0, g, poolRunner(2))
	if want := path + ": block 2: 1 bytes after the segment's stream"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v3 segment with a trailing byte: error %v, want one containing %q", err, want)
	}
}

// restoreErr restores path into a fresh grid of seededGrid's geometry and
// returns the error, turning a panic into a test failure.
func restoreErr(t *testing.T, path string) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("restore of %s panicked: %v", path, p)
		}
	}()
	g := grid.New(grid.Desc{N: 8, NBX: 2, NBY: 2, NBZ: 2, H: 0.0625})
	_, _, err = checkpoint.Restore(path, 0, g, poolRunner(2))
	return err
}

// TestRestoreV4Corrupt: a v4 file truncated at seeded offsets, with one
// byte of a segment flipped, or with one bit of a segment's CRC or size
// entry flipped, must fail to restore with an error — naming the file, and
// the damaged block once the header is intact — and never panic.
func TestRestoreV4Corrupt(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckp")
	writeSerial(t, good, seededGrid(11), nil)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := checkpoint.ReadHeader(good)
	if err != nil {
		t.Fatal(err)
	}
	payload := hdr.Offsets[0]
	rng := rand.New(rand.NewSource(17))

	cuts := []int64{0, 5, int64(len(checkpoint.Magic)) + 4, payload - 1, payload, int64(len(data)) - 1}
	for i := 0; i < 16; i++ {
		cuts = append(cuts, rng.Int63n(int64(len(data))))
	}
	path := filepath.Join(dir, "bad.ckp")
	for _, cut := range cuts {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		err := restoreErr(t, path)
		if err == nil {
			t.Fatalf("truncated at %d of %d bytes: restore succeeded", cut, len(data))
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("truncated at %d: error %q does not name the file", cut, err)
		}
		preamble := int64(len(checkpoint.Magic)) + 4
		if cut >= preamble && cut < payload && !strings.Contains(err.Error(), "exceeds the") {
			t.Errorf("truncated at %d: error %q does not reject the header length", cut, err)
		}
		if cut >= payload && !strings.Contains(err.Error(), "block ") {
			t.Errorf("truncated at %d: error %q does not name a block", cut, err)
		}
	}

	wantBlock := func(what string, k int, err error) {
		t.Helper()
		want := fmt.Sprintf("%s: block %d:", path, hdr.Blocks[0][k])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s of segment %d: error %v, want one containing %q", what, k, err, want)
		}
	}
	for i := 0; i < 16; i++ {
		k := rng.Intn(len(hdr.Segments[0]))
		start := payload
		for _, s := range hdr.Segments[0][:k] {
			start += s
		}
		pos := start + rng.Int63n(hdr.Segments[0][k])
		bad := slices.Clone(data)
		bad[pos] ^= 0xA5
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		wantBlock(fmt.Sprintf("byte %d flipped", pos), k, restoreErr(t, path))
	}

	body := data[payload:]
	for i := 0; i < 8; i++ {
		k := rng.Intn(len(hdr.Segments[0]))
		bad := hdr
		bad.CRCs = [][]uint32{slices.Clone(hdr.CRCs[0])}
		bad.CRCs[0][k] ^= 1 << rng.Intn(32)
		rewrite(t, path, bad, body)
		wantBlock("CRC entry flipped", k, restoreErr(t, path))

		bad = hdr
		bad.Segments = [][]int64{slices.Clone(hdr.Segments[0])}
		bad.Segments[0][k] ^= 1 << rng.Intn(20)
		rewrite(t, path, bad, body)
		wantBlock("size entry flipped", k, restoreErr(t, path))
	}
}

// TestRestoreV4SegmentTables: the segment tables are checked before any
// segment is read — a size or CRC table shorter than its block table is an
// error — a segment running past the file is an error naming its block, a
// segment whose CRC holds must still inflate to exactly one block and end
// where its stream ends, and a rank's segments must fill its payload.
func TestRestoreV4SegmentTables(t *testing.T) {
	const n = 8
	per := n * n * n * 7
	dir := t.TempDir()
	block := func(v float32) []float32 {
		vals := make([]float32, per)
		for i := range vals {
			vals[i] = v + float32(i)
		}
		return vals
	}
	craft := func(name string, segs [][]byte, sizes []int64, crcs []uint32) string {
		path := filepath.Join(dir, name)
		var payload []byte
		for _, s := range segs {
			payload = append(payload, s...)
		}
		writeCrafted(t, path, map[string]any{
			"version":       4,
			"block_size":    n,
			"rank_dims":     [3]int{1, 1, 1},
			"global_blocks": [3]int{2, 1, 1},
			"blocks":        [][]int64{{0, 1}},
			"segments":      [][]int64{sizes},
			"crcs":          [][]uint32{crcs},
		}, [][]byte{payload})
		return path
	}
	restore := func(path string) error {
		g := grid.New(grid.Desc{N: n, NBX: 2, NBY: 1, NBZ: 1, H: 0.125})
		_, _, err := checkpoint.Restore(path, 0, g, nil)
		return err
	}
	seg0, crc0 := planeSegment(block(1))
	seg1, crc1 := planeSegment(block(2))
	size0, size1 := int64(len(seg0)), int64(len(seg1))
	short, shortCRC := planeSegment(block(2)[:per-1])
	long, longCRC := planeSegment(append(block(2), 0))
	trailing, trailingCRC := planeSegment(block(2), 0)
	cases := []struct {
		name  string
		seg1  []byte
		sizes []int64
		crcs  []uint32
		want  string
	}{
		{"short_table", seg1, []int64{size0}, []uint32{crc0, crc1}, "1 segment sizes for 2 blocks"},
		{"short_crcs", seg1, nil, []uint32{crc0}, "1 segment CRCs for 2 blocks"},
		{"past_file", seg1, []int64{size0, 1 << 40}, []uint32{crc0, crc1}, "block 1: segment of 1099511627776 bytes outside"},
		{"bad_crc", seg1, nil, []uint32{crc0, crc1 ^ 1}, "block 1: segment CRC32C"},
		{"short_block", short, nil, []uint32{crc0, shortCRC}, "block 1: segment inflates to fewer than"},
		{"long_block", long, nil, []uint32{crc0, longCRC}, "block 1: segment inflates to more than"},
		{"trailing", trailing, nil, []uint32{crc0, trailingCRC}, "block 1: 1 bytes after the segment's stream"},
		{"unfilled", append(slices.Clone(seg1), 0), []int64{size0, size1}, []uint32{crc0, crc1}, "rank 0 segments do not fill its"},
	}
	for _, tc := range cases {
		sizes := tc.sizes
		if sizes == nil {
			sizes = []int64{size0, int64(len(tc.seg1))}
		}
		err := restore(craft(tc.name+".ckp", [][]byte{seg0, tc.seg1}, sizes, tc.crcs))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The same file with consistent tables restores, from the test's own
	// plane encoder.
	g := grid.New(grid.Desc{N: n, NBX: 2, NBY: 1, NBZ: 1, H: 0.125})
	path := craft("ok.ckp", [][]byte{seg0, seg1}, []int64{size0, size1}, []uint32{crc0, crc1})
	if _, _, err := checkpoint.Restore(path, 0, g, nil); err != nil {
		t.Fatal(err)
	}
	for bi, b := range g.Blocks {
		if !slices.Equal(b.Data, block(float32(bi+1))) {
			t.Fatalf("block %d differs from the encoded values", bi)
		}
	}
}
