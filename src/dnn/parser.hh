/**
 * @file
 * Text-format network descriptions — the paper's "DNN description
 * file" input (Fig. 10/14) as a parseable format, so users can feed
 * their own networks to the simulators without recompiling.
 *
 * Format: one layer per line; '#' starts a comment; blank lines are
 * skipped. The first non-comment line names the network.
 *
 *     network MyNet
 *     # kind  name    inC inHW outC kernel stride padding
 *     conv    conv1   3   224  64   7      2      3
 *     dwconv  dw2     64  112  -    3      1      1
 *     conv    pw2     64  112  128  1      1      0
 *     fc      fc1     6272 -   1000 -      -      -
 *
 * Fields that a kind does not use are written '-' (dwconv's outC is
 * its inC; fc ignores spatial fields).
 */

#ifndef SUPERNPU_DNN_PARSER_HH
#define SUPERNPU_DNN_PARSER_HH

#include <string>

#include "layer.hh"

namespace supernpu {
namespace dnn {

/**
 * Parse a network description. Malformed input is a fatal() whose
 * message names the line and the offending field: a missing or
 * non-integer value, one outside the int range, a non-positive size,
 * filter count, kernel or stride, negative padding, a kernel that
 * leaves no output, a value in a field the kind does not use, or an
 * unknown layer kind.
 */
Network parseNetwork(const std::string &text);

/** Serialize a network back into the parseable text format. */
std::string formatNetwork(const Network &network);

} // namespace dnn
} // namespace supernpu

#endif // SUPERNPU_DNN_PARSER_HH
