package gnutella

import (
	"container/list"
	"sync"

	"p2pmalware/internal/guid"
)

// routeTable remembers which connection a descriptor GUID arrived on, so
// responses (pongs for pings, query hits for queries, pushes for servent
// IDs) can be routed back along the reverse path. Entries expire LRU.
type routeTable struct {
	mu    sync.Mutex
	max   int
	order *list.List                  // of guid.GUID, front = oldest; guarded by mu
	elems map[guid.GUID]*list.Element // guarded by mu
	dests map[guid.GUID]*peerConn     // guarded by mu
}

// defaultRouteCapacity bounds reverse-path state per node; real servents
// kept on the order of tens of thousands of entries.
const defaultRouteCapacity = 8192

func newRouteTable(max int) *routeTable {
	if max <= 0 {
		max = defaultRouteCapacity
	}
	return &routeTable{
		max:   max,
		order: list.New(),
		elems: make(map[guid.GUID]*list.Element),
		dests: make(map[guid.GUID]*peerConn),
	}
}

// add records that g arrived via pc. The first route wins (later
// duplicates do not re-route), matching servent behaviour. It reports
// whether g was newly added — i.e. not a duplicate.
func (rt *routeTable) add(g guid.GUID, pc *peerConn) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.dests[g]; ok {
		return false
	}
	rt.dests[g] = pc
	rt.elems[g] = rt.order.PushBack(g)
	for rt.order.Len() > rt.max {
		oldest := rt.order.Front()
		og := oldest.Value.(guid.GUID)
		rt.order.Remove(oldest)
		delete(rt.dests, og)
		delete(rt.elems, og)
	}
	return true
}

// lookup returns the connection g arrived on, or nil.
func (rt *routeTable) lookup(g guid.GUID) *peerConn {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dests[g]
}

// seen reports whether g is in the table without modifying it.
func (rt *routeTable) seen(g guid.GUID) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.dests[g]
	return ok
}

// dropPeer removes all routes through pc (connection closed).
func (rt *routeTable) dropPeer(pc *peerConn) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for g, dest := range rt.dests {
		if dest == pc {
			// Keep the GUID for duplicate suppression but route nowhere.
			rt.dests[g] = nil
		}
	}
}
