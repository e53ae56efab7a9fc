package hwsim

import (
	"bytes"

	"ehdl/internal/ebpf"
	"ehdl/internal/vm"
)

// job is one in-flight packet and its architectural state. Jobs are
// pooled: a Sim owns every job it ever allocates, Inject arms a free
// one and complete — the single retirement point — returns it once the
// completion callback has run. Between those two calls exactly one of
// the ingress queue, a pipeline stage or the reload queue holds it.
// Everything a job points at (state, packet buffer, bitset, per-map
// slots, the frame copy, the snapshot slot) is allocated with it by
// newJob and reused, so the steady-state packet lifecycle performs no
// heap allocation.
type job struct {
	seq        uint64
	st         *vm.State
	enabled    []uint64 // block-enable bitset
	done       bool
	action     ebpf.XDPAction
	redirect   uint32
	injectedAt uint64
	frames     int
	stage      int // last visited stage (where a riding packet's burst began), -1 while queued
	execStage  int // last stage whose ops ran (guards stalls): the burst's end while riding
	// aheadFaults malformed-drop counts were recorded by a burst at
	// aheadStage, before the packet physically stood there (see
	// Sim.uncountAhead).
	aheadStage, aheadFaults int

	lookups []lookup // mapID -> last lookup
	// reads lists, per mapID, the keys of this packet's unconfirmed
	// reads — the addresses the Flush Evaluation Block compares a write
	// against. Keys of one map have one size, so each list is the keys
	// back to back in one reusable buffer.
	reads   [][]byte
	flushed int
	commits int // committed map mutations (atomic/update/delete/store)

	// frame is the packet as injected. The replay state of stage 0 is by
	// construction State.Reset(frame) with only the entry block enabled,
	// so that is all a replay from the pipeline input needs kept.
	frame []byte
	// snapshot is nil until the packet enters an elastic-buffer stage,
	// then points at the elastic slot.
	snapshot *snapshot
	elastic  snapshot // replay state entering the elastic-buffer stage
	// nextFree links the pool's retired jobs (Sim.free).
	nextFree *job

	// What st, the two packets and the slices above live in. The inline
	// arrays back the slices of the common geometry (up to three maps, 64
	// blocks, 256 bytes of frame, keys and reads); a larger program's or
	// frame's are made beside the job.
	state           vm.State
	pkt, elasticPkt vm.Packet
	slotsIn         [8]lookup
	readsIn         [3][]byte
	bitsIn          [4]uint64
	bytesIn         [256]byte
}

// lookup is the outcome of a packet's last bpf_map_lookup_elem on one
// map: the pointer it returned, the value slice behind that pointer —
// what a statically addressed access reads and writes directly, where a
// generic one resolves the address back to it — and the key naming the
// entry (not kept on a Burst, see staticLookup).
type lookup struct {
	addr  uint64
	val   []byte
	key   []byte
	valid bool // a lookup ran (key is meaningful even when it missed)
}

// snapshot captures everything needed to replay a packet from a stage.
// A slot is filled in place by capture and copied back by restore; it
// owns its state, packet buffer and key storage.
type snapshot struct {
	st       vm.State
	enabled  []uint64
	lookups  []lookup
	done     bool
	action   ebpf.XDPAction
	redirect uint32
	commits  int
}

func copyLookups(dst, src []lookup) {
	for i := range src {
		dst[i].addr, dst[i].val = src[i].addr, src[i].val
		dst[i].key = append(dst[i].key[:0], src[i].key...)
		dst[i].valid = src[i].valid
	}
}

// capture fills slot snap with j's replay state and returns it.
func (s *Sim) capture(j *job, snap *snapshot) *snapshot {
	snap.st.CopyFrom(j.st, s.stackLo, s.stackHi)
	snap.enabled = append(snap.enabled[:0], j.enabled...)
	copyLookups(snap.lookups, j.lookups)
	snap.done = j.done
	snap.action = j.action
	snap.redirect = j.redirect
	snap.commits = j.commits
	return snap
}

// restore rewinds j to a captured state, or with a nil snap to the
// pipeline input. Either way the replay starts with no unconfirmed
// reads.
func (s *Sim) restore(j *job, snap *snapshot) {
	s.clearReads(j)
	j.aheadStage, j.aheadFaults = 0, 0
	if snap == nil {
		j.st.Reset(j.frame, s.stackLo, s.stackHi)
		clear(j.enabled)
		setBit(j.enabled, 0) // the entry block is always enabled
		for i := range j.lookups {
			l := &j.lookups[i]
			l.addr, l.val, l.key, l.valid = 0, nil, l.key[:0], false
		}
		j.done, j.action, j.redirect, j.commits = false, 0, 0, 0
		return
	}
	j.st.CopyFrom(&snap.st, s.stackLo, s.stackHi)
	j.enabled = append(j.enabled[:0], snap.enabled...)
	copyLookups(j.lookups, snap.lookups)
	j.done = snap.done
	j.action = snap.action
	j.redirect = snap.redirect
	j.commits = snap.commits
}

func (j *job) enable(block int) {
	if block >= 0 {
		setBit(j.enabled, block)
	}
}

// hasRead reports whether key is among the packet's unconfirmed reads
// of mapID. The empty key matches nothing.
func (j *job) hasRead(mapID int, key []byte) bool {
	n := len(key)
	if n == 0 {
		return false
	}
	r := j.reads[mapID]
	for i := 0; i+n <= len(r); i += n {
		if bytes.Equal(r[i:i+n], key) {
			return true
		}
	}
	return false
}

// noteRead arms key as an unconfirmed read of mapID.
func (s *Sim) noteRead(j *job, mapID int, key []byte) {
	if !j.hasRead(mapID, key) {
		j.reads[mapID] = append(j.reads[mapID], key...)
		s.maps[mapID].feb[febBucket(key)]++
	}
}

// clearReads disarms every unconfirmed read of j.
func (s *Sim) clearReads(j *job) {
	for id, r := range j.reads {
		for n := s.maps[id].keySize; len(r) > 0; r = r[n:] {
			s.maps[id].feb[febBucket(r[:n])]--
		}
		j.reads[id] = j.reads[id][:0]
	}
}

// newJob allocates a job whole, sized for frames of frameLen bytes: its
// state and packets, its and the elastic snapshot's enable bitsets and
// lookup slots, and one byte slab holding the frame copy, both sets of
// lookup keys and a two-key read list per map — one object for the
// common geometry. Only the packets' buffers are left for the first
// arming (and an elastic capture) to make, and a longer frame or a
// packet reading more keys of a map grows its slice.
func (s *Sim) newJob(frameLen int) *job {
	n := len(s.maps)
	words := (len(s.pl.Blocks)+63)/64 + 1
	j := &job{}
	j.st = &j.state
	j.state.Pkt, j.elastic.st.Pkt = &j.pkt, &j.elasticPkt
	slots, reads, bits := j.slotsIn[:], j.readsIn[:], j.bitsIn[:]
	if len(slots) < 2*n {
		slots = make([]lookup, 2*n)
	}
	if len(reads) < len(s.maps) {
		reads = make([][]byte, len(s.maps))
	}
	if len(bits) < 2*words {
		bits = make([]uint64, 2*words)
	}
	j.lookups, j.elastic.lookups = slots[:n:n], slots[n:2*n:2*n]
	j.reads = reads[:len(s.maps):len(s.maps)]
	j.enabled, j.elastic.enabled = bits[:words:words], bits[words:words:2*words]

	keys := 0
	for i := range s.maps {
		keys += s.maps[i].keySize
	}
	slab := j.bytesIn[:]
	if len(slab) < frameLen+4*keys {
		slab = make([]byte, frameLen+4*keys)
	}
	carve := func(size int) []byte {
		b := slab[:0:size]
		slab = slab[size:]
		return b
	}
	j.frame = carve(frameLen)
	for i := range s.maps {
		size := s.maps[i].keySize
		j.lookups[i].key, j.elastic.lookups[i].key, j.reads[i] = carve(size), carve(size), carve(2*size)
	}
	return j
}

// acquire hands out a job armed for data, indistinguishable from a
// freshly allocated one whatever its previous packet left behind.
func (s *Sim) acquire(data []byte, frames int) *job {
	var j *job
	if j = s.free; j != nil {
		s.free, j.nextFree = j.nextFree, nil
	} else {
		j = s.newJob(len(data))
		s.jobsAllocated++
	}
	j.seq = s.seq
	j.frame = append(j.frame[:0], data...)
	s.restore(j, nil)
	j.injectedAt = s.cycle
	j.frames = frames
	j.stage, j.execStage = -1, -1
	j.flushed = 0
	j.snapshot = nil
	return j
}

// release returns a retired job to the pool.
func (s *Sim) release(j *job) { s.free, j.nextFree = j, s.free }

// jobRing is a FIFO of jobs that also accepts pushes at the head: the
// ingress queue, and the reload queue flush victims re-enter from
// (newer flushes recall older packets, which go in front). The backing
// array doubles on demand and is indexed, never resliced, so a ring at
// its working size allocates nothing.
type jobRing struct {
	buf  []*job // len is zero or a power of two
	head int
	n    int
}

func (r *jobRing) len() int { return r.n }

func (r *jobRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]*job, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf, r.head = buf, 0
}

// at returns the i-th job from the head.
func (r *jobRing) at(i int) *job { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *jobRing) pushBack(j *job) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = j
	r.n++
}

func (r *jobRing) pushFront(j *job) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = j
	r.n++
}

func (r *jobRing) popFront() *job {
	j := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return j
}
