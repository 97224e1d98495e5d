// Point-set (de)serialization: a text format (one whitespace-separated point
// per line, the shape HDFS text inputs take in the paper's pipeline) and a
// compact binary format for checkpointing generated datasets.
#pragma once

#include <string>

#include "geom/point_set.hpp"

namespace sdb::synth {

/// Render points as text, one line per point, coordinates separated by a
/// single space, '\n' line endings. This is the payload stored in MiniDfs
/// for the textFile -> parse pipeline.
std::string to_text(const PointSet& points);

/// Parse the text format. Aborts on malformed input or inconsistent
/// dimensionality. Blank lines are skipped. The text is split into a few
/// byte ranges per thread, each owning the records whose first byte it holds
/// (TextInputFormat's rule); the ranges are parsed on up to `threads`
/// threads straight into one exact-size row buffer. The result does not
/// depend on `threads`.
PointSet from_text(const std::string& text, unsigned threads = 1);

/// Binary round trip (dim + count + raw doubles).
void save_binary(const PointSet& points, const std::string& path);
PointSet load_binary(const std::string& path);

}  // namespace sdb::synth
