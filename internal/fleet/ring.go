package fleet

import "sort"

// ring is the cluster-level consistent-hash ring: flows are partitioned
// across devices one level above each device's own RSS dispatcher. Every
// member contributes vnodesPerDevice points derived from a splitmix
// finalizer, so the partition is deterministic in its members alone — two
// controllers built from the same seed agree on every flow's home — and
// removing a device moves only the flows that lived on its arcs, never
// reshuffling the survivors among themselves.
type ring struct {
	member map[int]bool
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint32
	device int
}

// vnodesPerDevice is the ring's virtual-node count per device.
const vnodesPerDevice = 16

func newRing() *ring { return &ring{member: map[int]bool{}} }

// pointHash spreads (device, vnode) over the hash space with the same
// splitmix finalizer the fault injector uses for stream forking.
func pointHash(device, vnode int) uint32 {
	v := uint64(device)<<32 | uint64(uint32(vnode))
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return uint32(v)
}

// Add admits a device (idempotent).
func (r *ring) Add(device int) {
	if r.member[device] {
		return
	}
	r.member[device] = true
	r.rebuild()
}

// Remove drains a device (idempotent).
func (r *ring) Remove(device int) {
	if !r.member[device] {
		return
	}
	delete(r.member, device)
	r.rebuild()
}

// Has reports ring membership.
func (r *ring) Has(device int) bool { return r.member[device] }

// Len returns the member count.
func (r *ring) Len() int { return len(r.member) }

func (r *ring) rebuild() {
	r.points = r.points[:0]
	for d := range r.member {
		for v := 0; v < vnodesPerDevice; v++ {
			r.points = append(r.points, ringPoint{pointHash(d, v), d})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare) break on device id so the order never
		// depends on map iteration.
		return r.points[i].device < r.points[j].device
	})
}

// Lookup maps a flow hash to its home device, walking clockwise to the
// first point at or past the hash and wrapping at the top. Returns
// (-1, false) on an empty ring.
func (r *ring) Lookup(hash uint32) (int, bool) {
	if len(r.points) == 0 {
		return -1, false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].device, true
}
