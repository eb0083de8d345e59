package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
)

// Everything the program receives is generated here from the workload
// seed: the tenant file's bytes, the owner's master key and the TPA's
// nonce streams. The same seed gives the same inputs.

// fileBytes is the tenant file size of audit-loopback and setup-store.
const fileBytes = 2 << 20

// fileMiB is fileBytes in MiB, the unit of the setup-store rates.
const fileMiB = float64(fileBytes) / (1 << 20)

const fileID = "perfbench-tenant-file"

// seededRand returns a math/rand source for one input stream of a seed.
func seededRand(seed int64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%s/%d", stream, seed)))
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:8]))))
}

// tenantFile returns the seeded file contents.
func tenantFile(seed int64) []byte {
	b := make([]byte, fileBytes)
	seededRand(seed, "file").Read(b)
	return b
}

// masterKey returns the owner's seeded 32-byte POR master key.
func masterKey(seed int64) []byte {
	h := sha256.Sum256([]byte(fmt.Sprintf("perfbench/master/%d", seed)))
	return h[:]
}

// encodeTiming times the two layer calls of one store encode.
type encodeTiming struct {
	Encode, Commit time.Duration
}

// encodeIntoStore runs the geoprep -store setup of data into dir:
// store.Create, por.Encoder.EncodeStream into the writer, Commit.
func encodeIntoStore(enc *por.Encoder, dir string, data []byte) (blockfile.Layout, encodeTiming, error) {
	var t encodeTiming
	layout, err := blockfile.NewLayout(enc.Params(), int64(len(data)))
	if err != nil {
		return layout, t, fmt.Errorf("layout: %w", err)
	}
	w, err := store.Create(dir, fileID, layout, store.Options{})
	if err != nil {
		return layout, t, err
	}
	defer w.Close()
	t0 := time.Now()
	if _, err := enc.EncodeStream(fileID, bytes.NewReader(data), int64(len(data)), w); err != nil {
		return layout, t, fmt.Errorf("encode into store: %w", err)
	}
	t1 := time.Now()
	if _, err := w.Commit(); err != nil {
		return layout, t, err
	}
	t = encodeTiming{Encode: t1.Sub(t0), Commit: time.Since(t1)}
	return layout, t, w.Close()
}
