package scanner

import "p2pmalware/internal/obs"

// met holds pre-resolved metric handles for the scanning hot path. Scan
// durations are wall time; the scanner sits outside the simulated
// networks, so its timings never feed trace events.
var met = newMetrics()

type metrics struct {
	scansClean    *obs.Counter
	scansInfected *obs.Counter
	detections    *obs.Counter
	bytesScanned  *obs.Counter
	scanDur       *obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		scansClean:    obs.C("p2p_scans_total", "result", "clean"),
		scansInfected: obs.C("p2p_scans_total", "result", "infected"),
		detections:    obs.C("p2p_scan_detections_total"),
		bytesScanned:  obs.C("p2p_scan_bytes_total"),
		scanDur:       obs.H("p2p_scan_duration_us", obs.LatencyBuckets),
	}
}
