package taintfix

import (
	"fmt"

	"p2pmalware/internal/bufpool"
)

// badPooledAlloc draws a pooled body sized by the peer.
func badPooledAlloc(peerLen int) []byte {
	return bufpool.GetSlab(peerLen) // want `untrusted length "peerLen" reaches bufpool.GetSlab`
}

// goodClampedPooled is the reject-and-return idiom before a pooled get.
func goodClampedPooled(peerLen int64) ([]byte, error) {
	if peerLen > MaxRecordLen {
		return nil, fmt.Errorf("record too long")
	}
	return bufpool.GetSlab(int(peerLen)), nil
}
