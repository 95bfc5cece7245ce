package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PointKey returns the canonical content address of one computed point:
// the scenario ID, the complete scale (including the seed), and the
// point's series, x, and full parameter assignment with sorted keys. Two
// identical keys denote the same pure computation — RunPoint derives all
// randomness from the scale seed and the point coordinates — so the key is
// safe to use for cross-request result caching and resumable checkpoints.
func PointKey(scenarioID string, s Scale, pt Point) string {
	var sb strings.Builder
	sb.Grow(192)
	sb.WriteString(scenarioID)
	sb.WriteByte('|')
	writeScaleKey(&sb, s)
	fmt.Fprintf(&sb, "|series=%s|x=%g", pt.Series, pt.X)
	if len(pt.Params) > 0 {
		sb.WriteByte('|')
		writeSortedParams(&sb, pt.Params, '|')
	}
	return sb.String()
}

// writeSortedParams renders a parameter assignment as name=value pairs in
// sorted-name order, separated by sep. It is the one rendering shared by
// PointKey (cache/checkpoint identity) and Point.Label (error and
// progress messages), so a reported point always names the same identity
// its cached result is stored under.
func writeSortedParams(sb *strings.Builder, params map[string]float64, sep byte) {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(sep)
		}
		fmt.Fprintf(sb, "%s=%g", name, params[name])
	}
}

// writeScaleKey serializes every Scale field in a fixed order. The
// scaleKeyFields test constant pins the field count (and the axis table
// pins Axes's) so adding a Scale dimension without extending this
// serialization fails the build's tests instead of silently aliasing
// distinct workloads to one key.
func writeScaleKey(sb *strings.Builder, s Scale) {
	fmt.Fprintf(sb, "grid=%dx%d|iu=%d|pt=%d|pg=", s.GridW, s.GridH, s.IdealUpdates, s.PercTrials)
	writeInts(sb, s.PercGrids)
	fmt.Fprintf(sb, "|nn=%d|nr=%d|nd=%d|q=", s.NetNodes, s.NetRuns, s.NetDuration.Nanoseconds())
	writeFloats(sb, s.QSweep)
	sb.WriteString("|pi=")
	writeFloats(sb, s.PSweepIdeal)
	sb.WriteString("|pn=")
	writeFloats(sb, s.PSweepNet)
	sb.WriteString("|ds=")
	writeFloats(sb, s.DeltaSweep)
	fmt.Fprintf(sb, "|hop=%d,%d|nth=", s.HopNear, s.HopFar)
	writeInts(sb, s.NetTrackHops)
	sb.WriteString("|duty=")
	writeFloats(sb, s.DutySweep)
	fmt.Fprintf(sb, "|seed=%d", s.Seed)
	// The axes follow, each omitted at its default, so every key minted
	// before an axis existed stays byte-identical.
	s.Axes.write(sb, '|', true)
}

// scaleKeyFields is the number of Scale fields writeScaleKey serializes,
// counting the embedded Axes as one (the axis table covers its fields).
const scaleKeyFields = 18

// SplitKey decomposes a canonical PointKey into its three segments: the
// scenario ID, the scale serialization (everything from the grid field up
// to the seed/protocol), and the point coordinates (series, x, parameters).
// It is the inverse boundary walk of PointKey's construction and exists so
// stored records can carry the scenario ID and scale redundantly and
// self-verify them against the key they claim to belong to (internal/store
// quarantines records where the segments disagree).
func SplitKey(key string) (scenarioID, scaleKey, pointKey string, err error) {
	bar := strings.IndexByte(key, '|')
	if bar <= 0 {
		return "", "", "", fmt.Errorf("scenario: key %q has no scale segment", key)
	}
	scenarioID, rest := key[:bar], key[bar+1:]
	// The scale segment always starts at "grid=" and the point segment at
	// "|series=": writeScaleKey emits grid first, PointKey emits series
	// first, and neither marker can occur earlier (scale field names are
	// fixed, and the scenario ID cannot contain '|').
	if !strings.HasPrefix(rest, "grid=") {
		return "", "", "", fmt.Errorf("scenario: key %q: scale segment does not start at grid=", key)
	}
	sep := strings.Index(rest, "|series=")
	if sep < 0 {
		return "", "", "", fmt.Errorf("scenario: key %q has no point segment", key)
	}
	return scenarioID, rest[:sep], rest[sep+1:], nil
}

func writeInts(sb *strings.Builder, vs []int) {
	for i, v := range vs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
}

func writeFloats(sb *strings.Builder, vs []float64) {
	for i, v := range vs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
}
