// Package guid implements the 16-byte globally unique identifiers used by
// Gnutella descriptors and servents.
//
// Gnutella GUIDs follow the conventions established by modern servents
// (LimeWire, BearShare): byte 8 is 0xFF to mark a "new" GUID and byte 15 is
// 0x00.
package guid

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
)

// Size is the length of a GUID in bytes.
const Size = 16

// GUID is a 16-byte Gnutella globally unique identifier.
type GUID [Size]byte

// Zero is the all-zero GUID. It is not valid on the wire but is useful as a
// sentinel.
var Zero GUID

// ErrBadLength is returned when parsing input of the wrong size.
var ErrBadLength = errors.New("guid: input is not 16 bytes")

// New returns a fresh random GUID following modern servent conventions:
// byte 8 set to 0xFF and byte 15 set to 0x00.
func New() GUID {
	var g GUID
	if _, err := rand.Read(g[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does the
		// process cannot make progress safely.
		panic(fmt.Sprintf("guid: crypto/rand failed: %v", err))
	}
	g[8] = 0xFF
	g[15] = 0x00
	return g
}

// NewFromRand returns a GUID drawn from the given source, for deterministic
// simulations. The source must return len(p) bytes and no error.
func NewFromRand(read func(p []byte) (int, error)) GUID {
	var g GUID
	if _, err := read(g[:]); err != nil {
		panic(fmt.Sprintf("guid: rand source failed: %v", err))
	}
	g[8] = 0xFF
	g[15] = 0x00
	return g
}

// FromBytes parses a GUID from a 16-byte slice.
func FromBytes(b []byte) (GUID, error) {
	var g GUID
	if len(b) != Size {
		return g, ErrBadLength
	}
	copy(g[:], b)
	return g, nil
}

// FromString parses a GUID from its 32-character hexadecimal form.
func FromString(s string) (GUID, error) {
	var g GUID
	if hex.DecodedLen(len(s)) != Size {
		return g, ErrBadLength
	}
	if _, err := hex.Decode(g[:], []byte(s)); err != nil {
		return g, fmt.Errorf("guid: %w", err)
	}
	return g, nil
}

// String returns the lower-case hexadecimal form of g.
func (g GUID) String() string {
	return hex.EncodeToString(g[:])
}

// IsZero reports whether g is the all-zero GUID.
func (g GUID) IsZero() bool {
	return g == Zero
}

// IsModern reports whether g follows the modern servent marker convention
// (byte 8 == 0xFF, byte 15 == 0x00).
func (g GUID) IsModern() bool {
	return g[8] == 0xFF && g[15] == 0x00
}
