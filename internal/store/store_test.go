package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/velement"
)

func randomArray(r *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = math.Round(r.Float64()*1000-500) / 4
	}
	return a
}

func TestElementRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rect := freq.Rect{2, 5, 1}
	a := randomArray(rng, 4, 2, 8)
	var buf bytes.Buffer
	if err := WriteElement(&buf, rect, a); err != nil {
		t.Fatal(err)
	}
	gotRect, gotArr, err := ReadElement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gotRect.Equal(rect) {
		t.Fatalf("rect %v, want %v", gotRect, rect)
	}
	if !gotArr.Equal(a, 0) {
		t.Fatal("array does not round trip bit-exactly")
	}
}

func TestWriteElementRankMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteElement(&buf, freq.Rect{1}, ndarray.New(2, 2)); err == nil {
		t.Fatal("want error for rank mismatch")
	}
}

func TestReadElementCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rect := freq.Rect{3, 1}
	a := randomArray(rng, 2, 4)
	var buf bytes.Buffer
	if err := WriteElement(&buf, rect, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)-10] ^= 0xFF
	if _, _, err := ReadElement(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload: err=%v, want ErrCorrupt", err)
	}

	// Truncated file.
	if _, _, err := ReadElement(bytes.NewReader(good[:len(good)-6])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err=%v, want ErrCorrupt", err)
	}

	// Bad magic.
	bad = append([]byte(nil), good...)
	bad[0] = 'X'
	if _, _, err := ReadElement(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err=%v, want ErrCorrupt", err)
	}

	// Empty input.
	if _, _, err := ReadElement(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty: err=%v, want ErrCorrupt", err)
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	rects := []freq.Rect{{1}, {2, 5, 13}, {1, 1, 1, 1, 1, 1, 1, 1}}
	for _, r := range rects {
		got, ok := parseFileName(fileName(r))
		if !ok || !got.Equal(r) {
			t.Fatalf("round trip of %v failed: %v %v", r, got, ok)
		}
	}
	for _, name := range []string{"x.txt", "0-1.vce", "a-b.vce", ".vce", "1-2-3-4-5-6-7-8-9.vce"} {
		if _, ok := parseFileName(name); ok {
			t.Errorf("parseFileName(%q) should fail", name)
		}
	}
}

func TestFileStoreBasics(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rect := freq.Rect{2, 1}
	a := randomArray(rng, 2, 4)
	if _, ok := fs.Get(rect); ok {
		t.Fatal("empty store must miss")
	}
	if err := fs.Put(rect, a); err != nil {
		t.Fatal(err)
	}
	got, ok := fs.Get(rect)
	if !ok || !got.Equal(a, 0) {
		t.Fatal("Get after Put failed")
	}
	if fs.Len() != 1 {
		t.Fatalf("Len=%d, want 1", fs.Len())
	}
	if err := fs.Delete(rect); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Get(rect); ok {
		t.Fatal("Get after Delete must miss")
	}
	if err := fs.Delete(rect); err != nil {
		t.Fatal("double delete is not an error")
	}
}

func TestFileStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	rects := []freq.Rect{{2, 1}, {3, 2}, {1, 3}}
	arrays := make([]*ndarray.Array, len(rects))
	{
		fs, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := velement.MustSpace(4, 4)
		for i, r := range rects {
			arrays[i] = randomArray(rng, s.ElementShape(r)...)
			if err := fs.Put(r, arrays[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Len() != len(rects) {
		t.Fatalf("reopened store has %d elements, want %d", fs2.Len(), len(rects))
	}
	for i, r := range rects {
		got, ok := fs2.Get(r)
		if !ok || !got.Equal(arrays[i], 0) {
			t.Fatalf("element %v not recovered", r)
		}
	}
	els := fs2.Elements()
	if len(els) != 3 {
		t.Fatalf("Elements returned %d", len(els))
	}
	for i := 1; i < len(els); i++ {
		a, b := els[i-1], els[i]
		leq := false
		for m := range a {
			if a[m] != b[m] {
				leq = a[m] < b[m]
				break
			}
		}
		if !leq {
			t.Fatal("Elements must be sorted")
		}
	}
}

func TestFileStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 0 {
		t.Fatalf("foreign files must be ignored, got %d elements", fs.Len())
	}
}

func TestFileStoreDetectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	fs, _ := Open(dir, 0)
	rect := freq.Rect{2, 1}
	rng := rand.New(rand.NewSource(5))
	if err := fs.Put(rect, randomArray(rng, 2, 4)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk behind the store's back.
	path := filepath.Join(dir, fileName(rect))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-12] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Get(rect); ok {
		t.Fatal("corrupt element must not be returned")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	dir := t.TempDir()
	// Budget of 20 cells; each element is 8 cells → at most 2 cached.
	fs, err := Open(dir, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	rects := []freq.Rect{{2, 1}, {3, 1}, {1, 2}}
	for _, r := range rects {
		if err := fs.Put(r, randomArray(rng, 2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if fs.CachedCells() > 20 {
		t.Fatalf("cache %d cells exceeds budget 20", fs.CachedCells())
	}
	// Rects[0] was evicted (LRU): getting it is a miss; rects[2] is a hit.
	h, m := fs.Hits(), fs.Misses()
	fs.Get(rects[2])
	if fs.Hits() != h+1 {
		t.Fatal("most recent element should hit the cache")
	}
	fs.Get(rects[0])
	if fs.Misses() != m+1 {
		t.Fatal("evicted element should miss the cache")
	}
	// Oversized elements bypass the cache entirely.
	big := freq.Rect{1, 1}
	if err := fs.Put(big, randomArray(rng, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if fs.CachedCells() > 20 {
		t.Fatal("oversized element must not blow the cache budget")
	}
}

// The file store can serve the assembly engine as a drop-in store: answers
// must match direct computation.
func TestFileStoreDrivesEngine(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	s := velement.MustSpace(8, 4)
	cube := randomArray(rng, 8, 4)
	mat, err := assembly.NewMaterializer(s, cube)
	if err != nil {
		t.Fatal(err)
	}
	if err := mat.Materialize(velement.WaveletBasis(s), fs); err != nil {
		t.Fatal(err)
	}
	eng := assembly.NewEngine(s, fs)
	for _, v := range s.AggregatedViews() {
		p, err := eng.ComputePlan(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Execute(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := haar.ApplyRect(cube, v)
		if !got.Equal(want, 1e-6) {
			t.Fatalf("view %v differs via file store", v)
		}
	}
}

var _ assembly.Store = (*FileStore)(nil)

func TestFileStoreDirAndPutError(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Dir() != dir {
		t.Fatalf("Dir=%q", fs.Dir())
	}
	// Putting into a store whose directory vanished must error, not panic.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(freq.Rect{1}, ndarray.New(2)); err == nil {
		t.Fatal("want error for unwritable directory")
	}
}

func TestOpenOnFilePathFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plainfile")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("want error when the store path is a file")
	}
}

// TestGetReturnsUnaliasedCopy is the regression test for the cache-aliasing
// hazard: an array handed out by Get must be the caller's own copy, so
// mutating it cannot corrupt what subsequent readers see. Both the
// cache-hit and the cold disk-read path are exercised.
func TestGetReturnsUnaliasedCopy(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rect := freq.Rect{2, 1}
	orig := randomArray(rng, 4, 8)
	want := orig.Clone()
	if err := fs.Put(rect, orig); err != nil {
		t.Fatal(err)
	}
	// Warm (write-admitted) cache hit.
	got, ok := fs.Get(rect)
	if !ok {
		t.Fatal("element missing")
	}
	got.Data()[0] += 1e6 // caller scribbles on its copy
	again, ok := fs.Get(rect)
	if !ok {
		t.Fatal("element missing on re-read")
	}
	if !again.Equal(want, 0) {
		t.Fatal("mutating a Get result corrupted the cached element")
	}
	// Cold path: a reopened store reads from disk, then admits; the admitted
	// copy must be private too.
	fs2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cold, ok := fs2.Get(rect)
	if !ok {
		t.Fatal("element missing from reopened store")
	}
	cold.Data()[0] -= 42
	warm, ok := fs2.Get(rect)
	if !ok {
		t.Fatal("element missing on warm re-read")
	}
	if !warm.Equal(want, 0) {
		t.Fatal("mutating a cold Get result corrupted the admitted element")
	}
}

// TestConcurrentGets hammers one store from many goroutines (run under
// -race): concurrent reads share the LRU bookkeeping and counters, which
// must be internally synchronised.
func TestConcurrentGets(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir, 64) // small budget so evictions happen concurrently
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	rects := []freq.Rect{{2, 1}, {3, 1}, {1, 2}, {1, 3}}
	want := make([]*ndarray.Array, len(rects))
	for i, r := range rects {
		a := randomArray(rng, 4, 8)
		want[i] = a.Clone()
		if err := fs.Put(r, a); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := (g + i) % len(rects)
				a, ok := fs.Get(rects[j])
				if !ok {
					errs <- errors.New("element went missing under concurrent reads")
					return
				}
				if !a.Equal(want[j], 0) {
					errs <- errors.New("concurrent read returned corrupted data")
					return
				}
				a.Data()[0] = -1 // private copy: scribbling must be harmless
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if fs.Hits()+fs.Misses() < 8*50 {
		t.Fatalf("counters lost updates: hits=%d misses=%d", fs.Hits(), fs.Misses())
	}
}
