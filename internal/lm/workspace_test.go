package lm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/tensor"
)

// goldenTexts and goldenEncodeSHA256 freeze the encoder's output bits at
// DefaultConfig: the SHA-256 of the little-endian math.Float32bits of
// Encode over every text, in order. The digest was computed before the
// encoder drew its scratch from a reusable workspace; any change to the
// arithmetic, its order or the weights shows up here.
var goldenTexts = []string{
	"", "NBA player statistics 2023 season", "points per game", "height cm",
	"salary usd", "team_name", "pointsPerGame player_age", "7.5 1234 0.02",
	"[CLS] abc [SEP]", "Bundesliga goals assists minutes played yellow cards red cards season 2019/2020",
}

const goldenEncodeSHA256 = "d2ee2a72d9ee13053c1a89434617dcd89bc78f4c4ec37d9e160ada24a19a203f"

func TestEncodeGolden(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	h := sha256.New()
	var b [4]byte
	for _, s := range goldenTexts {
		for _, x := range e.Encode(s) {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEncodeSHA256 {
		t.Fatalf("Encode golden digest = %s, want %s", got, goldenEncodeSHA256)
	}
}

func sameBits(a, b *tensor.F32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func seqTokens(n int) []string {
	tokens := make([]string, n)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok%d", i%37)
	}
	return tokens
}

// TestEncodeTokensDirtyWorkspace: a workspace that served a long sequence
// holds stale values past a short one's extent (and ctx accumulates), so
// long → short → long on one encoder must still match fresh encoders bit
// for bit.
func TestEncodeTokensDirtyWorkspace(t *testing.T) {
	long, short := seqTokens(90), seqTokens(7)
	e := NewEncoder(DefaultConfig())
	for i, tokens := range [][]string{long, short, long} {
		got := e.EncodeTokens(tokens)
		want := NewEncoder(DefaultConfig()).EncodeTokens(tokens)
		if !sameBits(got, want) {
			t.Fatalf("call %d (%d tokens): reused workspace diverged from a fresh encoder", i, len(tokens))
		}
	}
}

// TestEncoderConcurrentDistinctTexts runs cache misses — and so the pooled
// workspaces — from many goroutines at once (meaningful under -race): every
// text must encode to the bits a serial encoder gives it.
func TestEncoderConcurrentDistinctTexts(t *testing.T) {
	cfg := Config{Dim: 16, Layers: 2, Heads: 2, FFNDim: 32, MaxLen: 64, Buckets: 1 << 10, Seed: 3}
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = strings.Repeat(fmt.Sprintf("column %d value ", i), 1+i%9)
	}
	serial := NewEncoder(cfg)
	want := make([][]float32, len(texts))
	for i, s := range texts {
		want[i] = serial.Encode(s)
	}
	e := NewEncoder(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(texts); i += 4 {
				got := e.Encode(texts[i])
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[i][j]) {
						t.Errorf("concurrent Encode(%q) diverged", texts[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEncodeTokensWarmAllocs pins the workspace's purpose: once warm,
// EncodeTokens allocates only the matrix it returns (header + data).
func TestEncodeTokensWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	e := NewEncoder(DefaultConfig())
	tokens := seqTokens(40)
	e.EncodeTokens(tokens)
	if n := testing.AllocsPerRun(20, func() { e.EncodeTokens(tokens) }); n > 2 {
		t.Errorf("warm EncodeTokens: %v allocs/op, want ≤ 2 (the returned clone)", n)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool
