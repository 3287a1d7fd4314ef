package shard

import (
	"container/list"
	"sync"
)

// boundedLRU is a map holding at most cap entries: a put past the cap
// drops the least recently used one. It does no locking; its owner does.
type boundedLRU[K comparable, V any] struct {
	cap   int
	items map[K]*list.Element // key → element whose Value is *lruItem[K, V]
	order *list.List          // front = most recently used
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newBoundedLRU[K comparable, V any](capacity int) *boundedLRU[K, V] {
	return &boundedLRU[K, V]{cap: capacity, items: map[K]*list.Element{}, order: list.New()}
}

// get returns k's value, promoting it; it never inserts.
func (c *boundedLRU[K, V]) get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put sets k's value, promoting it, and evicts past the cap.
func (c *boundedLRU[K, V]) put(k K, v V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*lruItem[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruItem[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.items, back.Value.(*lruItem[K, V]).key)
		c.order.Remove(back)
	}
}

// removeIf drops every entry drop selects and reports how many.
func (c *boundedLRU[K, V]) removeIf(drop func(K, V) bool) int {
	var n int
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if it := el.Value.(*lruItem[K, V]); drop(it.key, it.val) {
			delete(c.items, it.key)
			c.order.Remove(el)
			n++
		}
		el = next
	}
	return n
}

func (c *boundedLRU[K, V]) len() int { return c.order.Len() }

// ownerEntry is one remembered routing decision: the replica holding a
// raw job ID, plus the idempotency key it was submitted under (empty for
// unkeyed jobs). The key is what lets the router re-find a replicated
// keyed job on the surviving owners after its primary dies.
type ownerEntry struct {
	replica string
	key     string
}

// ownerCache is the bounded sticky-routing memory behind job-ID fallback.
// Job IDs normally carry their replica suffix (job-3@r1), so this cache is
// only consulted for bare IDs and for the dead-primary key lookup — a
// miss degrades to the legacy scatter, never to an error. It is a plain
// LRU: Remember promotes, the least-recently-used entry falls off at cap,
// and ForgetReplica drops every entry pointing at a removed replica (an
// ejected one keeps only its keyed entries, see ForgetUnkeyed) so the map
// cannot pin dead routing state (the unbounded map it replaces kept
// entries for ejected replicas forever).
type ownerCache struct {
	mu      sync.Mutex
	entries *boundedLRU[string, ownerEntry] // raw ID → entry
}

func newOwnerCache(capacity int) *ownerCache {
	if capacity <= 0 {
		capacity = maxJobOwnerEntries
	}
	return &ownerCache{entries: newBoundedLRU[string, ownerEntry](capacity)}
}

// Remember records (or refreshes) raw → replica. A raw ID resubmitted
// under a different replica overwrites the old entry — the cache answers
// "where did I last see this ID", not "every place it ever lived" — with
// one exception: when both entries carry the same idempotency key they are
// copies of one logical job (a takeover, say), and the first-remembered
// replica (the one the client-facing ID suffix points at) is kept, so a
// copy seen later in a fleet listing cannot clobber the mapping the
// dead-primary fallback depends on.
func (oc *ownerCache) Remember(raw, replica, key string) {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	e, ok := oc.entries.get(raw)
	if !ok || e.key == "" || e.key != key {
		e = ownerEntry{replica: replica, key: key}
	}
	oc.entries.put(raw, e)
}

// Resolve answers which replica last held raw, promoting the entry.
func (oc *ownerCache) Resolve(raw string) (string, bool) {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	e, ok := oc.entries.get(raw)
	return e.replica, ok
}

// Key returns the idempotency key raw was submitted under, but only if the
// cache still maps it to replica — a stale or overwritten entry must not
// redirect a read at some other replica's job.
func (oc *ownerCache) Key(raw, replica string) string {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if e, ok := oc.entries.get(raw); ok && e.replica == replica {
		return e.key
	}
	return ""
}

// ForgetReplica evicts every entry pointing at replica (drain, removal)
// and reports how many it dropped.
func (oc *ownerCache) ForgetReplica(replica string) int { return oc.forget(replica, false) }

// ForgetUnkeyed is ForgetReplica for an ejected replica: keyed entries
// stay, because they are how a read of the dead replica's keyed job finds
// the followers holding it.
func (oc *ownerCache) ForgetUnkeyed(replica string) int { return oc.forget(replica, true) }

func (oc *ownerCache) forget(replica string, keepKeyed bool) int {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.entries.removeIf(func(_ string, e ownerEntry) bool {
		return e.replica == replica && !(keepKeyed && e.key != "")
	})
}

// Len reports the current entry count.
func (oc *ownerCache) Len() int {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.entries.len()
}
