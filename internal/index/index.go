// Package index implements Focus's top-K ingest index (§3, §4.1): the
// mapping from object classes to the clusters of objects that might belong
// to them, plus per-cluster records holding the centroid ("representative")
// object, the member sightings, and their frame IDs.
//
// Schema, following §3, plus the time order every query reads it in (§5):
//
//	object class → ⟨cluster ID, rank of class in the cluster's top-K⟩
//	cluster ID   → [centroid object, ⟨objects⟩ in cluster, ⟨frame IDs⟩]
//	time run     → ⟨sighting references⟩ ordered by (frame, object, cluster)
//
// Looking up class X with a cut-off Kx ≤ K returns exactly the clusters
// whose cluster-level top-Kx contains X, which is how the query engine
// implements the dynamically adjustable Kx of §5.
//
// The first two mappings are what ingest writes and what is persisted. The
// third is derived from them as records enter the index (timeline.go) and
// never stored: every query is a time window, and it lets a reader walk a
// window's sightings in stream order without gathering and sorting whole
// clusters. Cluster IDs are dense (0..NextID-1), so the cluster mapping is
// a table indexed by ID.
package index

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"sync"

	"focus/internal/cluster"
	"focus/internal/kvstore"
	"focus/internal/vision"
)

// ClusterID identifies a cluster within one stream's index.
type ClusterID int64

// IngestMeta records how a stream was ingested: which cheap CNN built the
// index and with what K. The query engine needs it to route queries for
// unspecialized classes through the OTHER postings (§4.3).
type IngestMeta struct {
	// Stream is the stream name this index covers.
	Stream string
	// ModelName is the ingest CNN used.
	ModelName string
	// Specialized reports whether the ingest CNN was stream-specialized.
	Specialized bool
	// SpecialClasses is the specialized model's class list (nil when not
	// specialized).
	SpecialClasses []vision.ClassID
	// K is the number of top classes indexed per cluster.
	K int
	// DurationSec and FPS describe the ingested window.
	DurationSec float64
	FPS         float64
	// TotalSightings is the number of object sightings ingested, the
	// denominator for the Query-all baseline's work.
	TotalSightings int
}

// ClusterRecord is the persisted form of one spilled cluster.
type ClusterRecord struct {
	ID ClusterID
	// TopK is the cluster-level ranked class list (length ≤ K).
	TopK []vision.Prediction
	// Rep is the centroid object the GT-CNN classifies at query time.
	Rep cluster.Member
	// Members are all sightings in the cluster (frame IDs and timestamps
	// included), returned wholesale when the centroid matches the query.
	// Once the record is in an index they are non-decreasing in TimeSec —
	// ingest appends them in frame order, and a record that arrives
	// otherwise is given a sorted copy — which is what lets Window cut a
	// time range by binary search.
	Members []cluster.Member
	// MinTime and MaxTime bound the members' timestamps for time-ranged
	// query pruning.
	MinTime, MaxTime float64
	// SealSec is the stream time at which this cluster was spilled into the
	// index: the ingest watermark it became visible at. A query executed "at
	// watermark W" considers exactly the clusters with SealSec <= W, which
	// makes its answer a pure function of (class, options, W) no matter how
	// far ingestion has advanced since — the consistency contract the serve
	// layer's result cache relies on. Spill times are per-frame-deterministic,
	// so two ingestions of the same stream stamp identical SealSecs
	// regardless of how the ingest window was chunked.
	SealSec float64
}

// Size returns the number of member sightings.
func (r *ClusterRecord) Size() int { return len(r.Members) }

// Window returns the members with startSec <= TimeSec <= endSec (endSec <= 0
// means unbounded), as a sub-slice of Members. It relies on the order an
// index establishes for its records' Members.
func (r *ClusterRecord) Window(startSec, endSec float64) []cluster.Member {
	ms := r.Members
	if r.MinTime >= startSec && (endSec <= 0 || r.MaxTime <= endSec) {
		return ms
	}
	lo := sort.Search(len(ms), func(i int) bool { return ms[i].TimeSec >= startSec })
	if endSec <= 0 {
		return ms[lo:]
	}
	rest := ms[lo:]
	return rest[:sort.Search(len(rest), func(i int) bool { return rest[i].TimeSec > endSec })]
}

func memberTimeCompare(a, b cluster.Member) int { return cmp.Compare(a.TimeSec, b.TimeSec) }

// visibleAt follows the MaxSealSec convention of the query layer: 0 means
// "everything indexed so far", a positive watermark keeps exactly the
// records with SealSec <= maxSealSec. (Callers handle the negative, empty
// horizon themselves: nothing is visible.)
func (r *ClusterRecord) visibleAt(maxSealSec float64) bool {
	return maxSealSec == 0 || r.SealSec <= maxSealSec
}

// Overlaps reports whether the record's time span meets [startSec, endSec]
// (endSec <= 0 means unbounded).
func (r *ClusterRecord) Overlaps(startSec, endSec float64) bool {
	return r.MaxTime >= startSec && (endSec <= 0 || r.MinTime <= endSec)
}

// Posting is one entry of the class → clusters mapping.
type Posting struct {
	Cluster ClusterID
	// Rank is the 1-based position of the class within the cluster's
	// top-K; Lookup with cut-off kx returns postings with Rank <= kx.
	Rank int
}

// Index is one stream's top-K ingest index. Writes happen during ingest
// (single writer); reads happen at query time (many readers). All methods
// are safe for concurrent use.
type Index struct {
	mu   sync.RWMutex
	meta IngestMeta
	// clusters is the dense cluster table: clusters[id].ID == id. Records
	// are immutable once added and the table only grows, so a slice header
	// taken under the lock stays a consistent snapshot after it is released.
	clusters []*ClusterRecord
	postings map[vision.ClassID][]Posting
	// unsorted holds the classes whose posting list gained an entry since it
	// was last ordered.
	unsorted map[vision.ClassID]struct{}
	// runs is the sighting timeline (timeline.go).
	runs []timelineRun
	// ingestSec is the stream time ingestion has reached; AddCluster stamps
	// it onto each spilled record as SealSec.
	ingestSec float64
}

// New creates an empty index for a stream.
func New(meta IngestMeta) *Index {
	return &Index{
		meta:     meta,
		postings: make(map[vision.ClassID][]Posting),
		unsorted: make(map[vision.ClassID]struct{}),
	}
}

// Meta returns the ingest metadata.
func (ix *Index) Meta() IngestMeta {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.meta
}

// SetTotalSightings records the final sighting count after ingest.
func (ix *Index) SetTotalSightings(n int) {
	ix.mu.Lock()
	ix.meta.TotalSightings = n
	ix.mu.Unlock()
}

// SetIngestSec advances the stream time stamped onto newly spilled clusters
// (their SealSec). The ingest worker calls it once per processed frame.
func (ix *Index) SetIngestSec(sec float64) {
	ix.mu.Lock()
	if sec > ix.ingestSec {
		ix.ingestSec = sec
	}
	ix.mu.Unlock()
}

// SetWindow records the ingested window's duration and effective frame rate.
func (ix *Index) SetWindow(durationSec, fps float64) {
	ix.mu.Lock()
	ix.meta.DurationSec = durationSec
	ix.meta.FPS = fps
	ix.mu.Unlock()
}

// AddCluster ingests a spilled cluster: computes its cluster-level top-K
// from the aggregated class confidences and adds postings for each of those
// classes. The index assigns its own cluster IDs, so clusters from
// different engine instances never collide.
func (ix *Index) AddCluster(c *cluster.Cluster) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	topK := c.TopK(ix.meta.K)
	minT, maxT := c.TimeRange()
	rec := &ClusterRecord{
		ID:      ClusterID(len(ix.clusters)),
		TopK:    topK,
		Rep:     c.Representative(),
		Members: c.Members,
		MinTime: minT,
		MaxTime: maxT,
		SealSec: ix.ingestSec,
	}
	if err := ix.addRecordLocked(rec); err != nil {
		panic(err) // unreachable: the ID was taken from the table's length
	}
}

// addRecordLocked is the one place a record enters the index — spilled by
// ingest, or read back by Load and LoadBounded — and so the one place its
// invariants are established: the next dense ID, Members in time order,
// postings for its top-K classes, and its sightings on the timeline.
func (ix *Index) addRecordLocked(rec *ClusterRecord) error {
	if rec.ID != ClusterID(len(ix.clusters)) {
		return fmt.Errorf("index: cluster %d out of dense ID order (next is %d)", rec.ID, len(ix.clusters))
	}
	if !slices.IsSortedFunc(rec.Members, memberTimeCompare) {
		rec.Members = slices.Clone(rec.Members)
		slices.SortStableFunc(rec.Members, memberTimeCompare)
	}
	ix.clusters = append(ix.clusters, rec)
	for i, p := range rec.TopK {
		ix.postings[p.Class] = append(ix.postings[p.Class], Posting{Cluster: rec.ID, Rank: i + 1})
		ix.unsorted[p.Class] = struct{}{}
	}
	ix.addToTimelineLocked(rec)
	return nil
}

// ensureSorted restores (rank, cluster) order on the posting lists that
// gained entries, so Lookup can cut by rank and return deterministic
// results.
func (ix *Index) ensureSorted() {
	for c := range ix.unsorted {
		slices.SortFunc(ix.postings[c], func(a, b Posting) int {
			return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Cluster, b.Cluster))
		})
	}
	clear(ix.unsorted)
}

// Lookup returns the clusters whose cluster-level top-kx contains class c,
// most confident first. kx <= 0 or kx > K defaults to the index's K.
// The sort state is checked and the postings read under one lock hold: a
// concurrent AddCluster (live ingest) can never interleave between the sort
// and the binary search.
func (ix *Index) Lookup(c vision.ClassID, kx int) []*ClusterRecord {
	ix.mu.RLock()
	if len(ix.unsorted) > 0 {
		// Upgrade to sort, then read while still holding the write lock —
		// dropping it first would let a concurrent AddCluster unsort the
		// postings under the binary search.
		ix.mu.RUnlock()
		ix.mu.Lock()
		ix.ensureSorted()
		out := ix.lookupLocked(c, kx)
		ix.mu.Unlock()
		return out
	}
	out := ix.lookupLocked(c, kx)
	ix.mu.RUnlock()
	return out
}

// lookupLocked performs the sorted-postings lookup; callers hold ix.mu (read
// or write) and have ensured the postings are sorted.
func (ix *Index) lookupLocked(c vision.ClassID, kx int) []*ClusterRecord {
	if kx <= 0 || kx > ix.meta.K {
		kx = ix.meta.K
	}
	ps := ix.postings[c]
	// Postings are sorted by rank: binary search the cut.
	cut := sort.Search(len(ps), func(i int) bool { return ps[i].Rank > kx })
	out := make([]*ClusterRecord, 0, cut)
	for _, p := range ps[:cut] {
		out = append(out, ix.clusters[p.Cluster])
	}
	return out
}

// ClustersSealedBy returns every cluster record visible at the given
// watermark, ascending by cluster ID. It follows the MaxSealSec convention
// used by the query layer: 0 means "everything indexed so far", a negative
// value means "empty horizon" (no clusters), and a positive value keeps
// exactly the records with SealSec <= maxSealSec. Timeline applies the same
// rule per sighting, which makes a track population a pure function of the
// pinned watermark.
func (ix *Index) ClustersSealedBy(maxSealSec float64) []*ClusterRecord {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if maxSealSec < 0 {
		return nil
	}
	out := make([]*ClusterRecord, 0, len(ix.clusters))
	for _, rec := range ix.clusters {
		if rec.visibleAt(maxSealSec) {
			out = append(out, rec)
		}
	}
	return out
}

// HasClass reports whether any cluster indexes class c at any rank.
func (ix *Index) HasClass(c vision.ClassID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings[c]) > 0
}

// Classes returns every class with at least one posting, ascending.
func (ix *Index) Classes() []vision.ClassID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]vision.ClassID, 0, len(ix.postings))
	for c := range ix.postings {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// NumClusters returns the number of indexed clusters.
func (ix *Index) NumClusters() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.clusters)
}

// Cluster returns the record with the given ID, or nil.
func (ix *Index) Cluster(id ClusterID) *ClusterRecord {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= ClusterID(len(ix.clusters)) {
		return nil
	}
	return ix.clusters[id]
}

// Stats summarizes the index for reporting.
type Stats struct {
	Clusters       int
	Postings       int
	Members        int
	MeanSize       float64
	LargestCluster int
}

// Stats computes summary statistics.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var st Stats
	st.Clusters = len(ix.clusters)
	for _, ps := range ix.postings {
		st.Postings += len(ps)
	}
	for _, c := range ix.clusters {
		st.Members += len(c.Members)
		if len(c.Members) > st.LargestCluster {
			st.LargestCluster = len(c.Members)
		}
	}
	if st.Clusters > 0 {
		st.MeanSize = float64(st.Members) / float64(st.Clusters)
	}
	return st
}

// ---- persistence ----

// metaKey and clusterKey define the store's key scheme.
func metaKey(stream string) string { return "focus/meta/" + stream }
func clusterKeyPrefix(stream string) string {
	return "focus/cluster/" + stream + "/"
}
func clusterKey(stream string, id ClusterID) string {
	return fmt.Sprintf("%s%016x", clusterKeyPrefix(stream), uint64(id))
}

// MetaKey returns the store key holding a stream's index metadata record.
// Exported for the stream-handoff path, which ships a stream's records
// between shards by key.
func MetaKey(stream string) string { return metaKey(stream) }

// ClusterKeyPrefix returns the store key prefix under which a stream's
// cluster records live; the suffix is the 16-hex-digit cluster ID, so a
// prefix scan visits records in ascending ID order.
func ClusterKeyPrefix(stream string) string { return clusterKeyPrefix(stream) }

// ClusterKeyID parses the cluster ID out of a cluster record key, given
// the stream's prefix. Returns false for keys that are not cluster records
// of that prefix.
func ClusterKeyID(key, prefix string) (ClusterID, bool) {
	if len(key) != len(prefix)+16 || key[:len(prefix)] != prefix {
		return 0, false
	}
	var id uint64
	for i := len(prefix); i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return ClusterID(id), true
}

// Save persists the index into the store, replacing any previous index for
// the same stream.
func (ix *Index) Save(store *kvstore.Store) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	// Remove stale cluster records from a previous save of this stream.
	var stale []string
	store.Scan(clusterKeyPrefix(ix.meta.Stream), func(k string, _ []byte) bool {
		stale = append(stale, k)
		return true
	})
	for _, k := range stale {
		if err := store.Delete(k); err != nil {
			return fmt.Errorf("index: delete stale record: %w", err)
		}
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ix.meta); err != nil {
		return fmt.Errorf("index: encode meta: %w", err)
	}
	if err := store.Put(metaKey(ix.meta.Stream), buf.Bytes()); err != nil {
		return err
	}
	for _, rec := range ix.clusters {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			return fmt.Errorf("index: encode cluster %d: %w", rec.ID, err)
		}
		if err := store.Put(clusterKey(ix.meta.Stream, rec.ID), buf.Bytes()); err != nil {
			return err
		}
	}
	return store.Sync()
}

// NextID returns the ID the next spilled cluster will be assigned. Cluster
// IDs are dense (0..NextID-1), so NextID doubles as a high-water mark:
// checkpoints record it, and LoadBounded restores exactly the records below
// it.
func (ix *Index) NextID() ClusterID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ClusterID(len(ix.clusters))
}

// IngestSec returns the stream time ingestion has reached (the SealSec that
// would be stamped on a cluster spilled right now).
func (ix *Index) IngestSec() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ingestSec
}

// SaveDelta persists the metadata and every cluster record with ID >= fromID
// into the store, returning the next ID (the new high-water mark). Unlike
// Save it neither deletes previous records nor syncs: it is the incremental
// half of a checkpoint round, whose caller appends a snapshot record after
// it and syncs once. Records past a crash-interrupted round are harmless —
// the snapshot record that would commit them never landed, LoadBounded
// ignores them, and the deterministic tail replay regenerates them under the
// same IDs (hence the same keys).
func (ix *Index) SaveDelta(store *kvstore.Store, fromID ClusterID) (ClusterID, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ix.meta); err != nil {
		return fromID, fmt.Errorf("index: encode meta: %w", err)
	}
	if err := store.Put(metaKey(ix.meta.Stream), buf.Bytes()); err != nil {
		return fromID, err
	}
	if fromID < 0 {
		return fromID, fmt.Errorf("index: negative cluster ID %d", fromID)
	}
	next := ClusterID(len(ix.clusters))
	for id := fromID; id < next; id++ {
		rec := ix.clusters[id]
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			return fromID, fmt.Errorf("index: encode cluster %d: %w", rec.ID, err)
		}
		if err := store.Put(clusterKey(ix.meta.Stream, rec.ID), buf.Bytes()); err != nil {
			return fromID, err
		}
	}
	return next, nil
}

// LoadBounded reads a stream's index back from the store, keeping only
// cluster records with ID < belowID: the committed prefix a checkpoint's
// snapshot record vouches for. Records at or past belowID (spilled after the
// snapshot was cut, or left by an interrupted checkpoint round) are skipped;
// the ingest tail replay regenerates them deterministically.
func LoadBounded(store *kvstore.Store, stream string, belowID ClusterID) (*Index, error) {
	raw, ok := store.Get(metaKey(stream))
	if !ok {
		return nil, fmt.Errorf("index: no index for stream %q", stream)
	}
	var meta IngestMeta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("index: decode meta: %w", err)
	}
	ix := New(meta)
	var loadErr error
	store.Scan(clusterKeyPrefix(stream), func(_ string, val []byte) bool {
		var rec ClusterRecord
		if err := gob.NewDecoder(bytes.NewReader(val)).Decode(&rec); err != nil {
			loadErr = fmt.Errorf("index: decode cluster: %w", err)
			return false
		}
		if rec.ID >= belowID {
			return true
		}
		loadErr = ix.addRecordLocked(&rec)
		return loadErr == nil
	})
	if loadErr != nil {
		return nil, loadErr
	}
	if next := ClusterID(len(ix.clusters)); next != belowID {
		return nil, fmt.Errorf("index: stream %q checkpoint expects %d cluster records, store has %d",
			stream, belowID, next)
	}
	return ix, nil
}

// Load reads a stream's index back from the store.
func Load(store *kvstore.Store, stream string) (*Index, error) {
	raw, ok := store.Get(metaKey(stream))
	if !ok {
		return nil, fmt.Errorf("index: no index for stream %q", stream)
	}
	var meta IngestMeta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("index: decode meta: %w", err)
	}
	ix := New(meta)
	var loadErr error
	store.Scan(clusterKeyPrefix(stream), func(_ string, val []byte) bool {
		var rec ClusterRecord
		if err := gob.NewDecoder(bytes.NewReader(val)).Decode(&rec); err != nil {
			loadErr = fmt.Errorf("index: decode cluster: %w", err)
			return false
		}
		loadErr = ix.addRecordLocked(&rec)
		return loadErr == nil
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return ix, nil
}
