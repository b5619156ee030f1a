// Package metricname is the golden fixture for the metricname
// analyzer: literal lower_snake dotted names, per-package uniqueness,
// and the constant-name requirement.
package metricname

import "acclaim/internal/obs"

func register(reg *obs.Registry, rec obs.Recorder, dyn string) {
	reg.Counter("fixture.lookups_total")
	reg.Counter("Fixture.Bad")         // want `name "Fixture\.Bad" does not match`
	reg.Histogram("fixture.Fit_ns")    // want `name "fixture\.Fit_ns" does not match`
	reg.Gauge("fixture.lookups_total") // want `metric "fixture\.lookups_total" already registered at`
	reg.Counter(dyn)                   // want `metric name is not a constant string`
	reg.HDR("fixture.Lat.NS")          // want `name "fixture\.Lat\.NS" does not match`
	reg.HDRFunc("fixture.lat_ns", nil)
	reg.HDRFunc("fixture.lat_ns", nil) // want `metric "fixture\.lat_ns" already registered at`

	id := rec.StartSpan("tune:bcast", obs.NoSpan)
	rec.EndSpan(id)
	rec.EndSpan(rec.StartSpan("Tune Bcast", obs.NoSpan)) // want `name "Tune Bcast" does not match`
}

// perCollective builds one gauge per collective at setup time; the
// runtime segments keep the scheme, which the allow records.
//
//acclaim:allow metricname per-collective gauge: tuner.<coll>.cum_variance, segments are lower_snake
func perCollective(reg *obs.Registry, coll string) *obs.Gauge {
	return reg.Gauge("tuner." + coll + ".cum_variance")
}
