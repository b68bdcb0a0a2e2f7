// Package objstore is an S3-style object gateway over the transfer stack:
// bucket and key naming, metadata lookups and scans whose costs are
// charged to host CPU and memory through the fluid model, and a coalescing
// transfer mapper that lays small objects onto rftp batch windows
// (single-pair mode) or cluster jobs (cluster mode).
//
// The package exists for the small-file regime the paper's tool ignores:
// millions of tiny objects from thousands of tenants, where per-transfer
// setup — metadata lookup, session establishment, per-object control
// exchanges — dominates and goodput collapses far below link rate. The
// headline mechanism is the coalescing window: adjacent objects for the
// same (tenant, route) share one rftp session and its credit windows with
// in-band per-object delimiting and exactly-once per-object completion,
// and their metadata lookups batch into one amortized index scan. A knob
// (Params.Coalesce) sweeps from per-object streams (worst case) to
// aggressive coalescing; experiment S8 quantifies the gap.
package objstore

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// S3-compatible naming limits.
const (
	MinBucketLen = 3
	MaxBucketLen = 63
	MaxKeyLen    = 1024
)

// ValidateBucket checks S3-style bucket naming rules: 3–63 characters of
// lowercase letters, digits, dots and hyphens, starting and ending with a
// letter or digit, with no empty dot-separated label and no IPv4 shape.
func ValidateBucket(b string) error {
	if len(b) < MinBucketLen || len(b) > MaxBucketLen {
		return fmt.Errorf("objstore: bucket %q: length must be %d-%d", b, MinBucketLen, MaxBucketLen)
	}
	alnum := func(c byte) bool {
		return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
	}
	if !alnum(b[0]) || !alnum(b[len(b)-1]) {
		return fmt.Errorf("objstore: bucket %q: must start and end with a lowercase letter or digit", b)
	}
	prevDot := false
	digitsAndDotsOnly := true
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case alnum(c) || c == '-':
			if c < '0' || c > '9' {
				digitsAndDotsOnly = false
			}
			prevDot = false
		case c == '.':
			if prevDot {
				return fmt.Errorf("objstore: bucket %q: empty label (\"..\")", b)
			}
			if b[i-1] == '-' || i+1 < len(b) && b[i+1] == '-' {
				return fmt.Errorf("objstore: bucket %q: label must not start or end with '-'", b)
			}
			prevDot = true
		default:
			return fmt.Errorf("objstore: bucket %q: invalid character %q", b, c)
		}
	}
	if digitsAndDotsOnly && strings.Count(b, ".") == 3 {
		return fmt.Errorf("objstore: bucket %q: must not look like an IPv4 address", b)
	}
	return nil
}

// ValidateKey checks object key rules: 1–1024 bytes of valid UTF-8 with no
// control characters. Slashes are ordinary key bytes (S3 keys are flat;
// "directories" are a client fiction).
func ValidateKey(k string) error {
	if len(k) == 0 {
		return fmt.Errorf("objstore: empty object key")
	}
	if len(k) > MaxKeyLen {
		return fmt.Errorf("objstore: key too long (%d > %d bytes)", len(k), MaxKeyLen)
	}
	if !utf8.ValidString(k) {
		return fmt.Errorf("objstore: key is not valid UTF-8")
	}
	for _, r := range k {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("objstore: key contains control character %q", r)
		}
	}
	return nil
}

// ParseKey splits "bucket/key" into its validated halves. The first slash
// is the separator; everything after it — further slashes included — is
// the object key.
func ParseKey(s string) (bucket, key string, err error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return "", "", fmt.Errorf("objstore: %q: want bucket/key", s)
	}
	bucket, key = s[:i], s[i+1:]
	if err := ValidateBucket(bucket); err != nil {
		return "", "", err
	}
	if err := ValidateKey(key); err != nil {
		return "", "", err
	}
	return bucket, key, nil
}

// FormatKey joins a bucket and key into the canonical "bucket/key" form.
func FormatKey(bucket, key string) string { return bucket + "/" + key }
