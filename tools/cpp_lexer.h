// Shared C++ lexer for the dAuth static-analysis tools (dauth-lint and
// dauth-taint).
//
// Lexes C++ into identifiers / numbers / punctuation / string literals,
// dropping comments and whole preprocessor lines. Two deliberate deviations
// from a production lexer:
//
//   * String literal CONTENTS are retained (dauth-taint's handler-contract
//     pass needs the service name in a declaration `Service<Req, Rsp>
//     kBackupStore{"backup.store"}` or a `register_service(node, "x", ...)`
//     call), but they are a distinct token kind, so identifier-matching
//     rules never fire on text inside quotes.
//   * Comments are scanned for `DAUTH_DISCLOSE(<reason>)` annotations before
//     being discarded. An annotation marks the line it sits on (and, when it
//     is the only thing on its line, the line below) as a REVIEWED
//     disclosure: dauth-taint suppresses sink findings there. The reason is
//     kept so the tool can reject annotations without a written
//     justification.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dauth::lex {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString };
  Kind kind = Kind::kPunct;
  std::string text;  // for kString: the literal's contents (quotes stripped)
  int line = 1;
};

/// One `// DAUTH_DISCLOSE(<reason>)` annotation found in a comment.
struct Disclosure {
  int line = 0;          // line the annotation text appears on
  bool covers_next = false;  // true when the comment stands alone on its line
  std::string reason;    // text inside the parentheses (may be empty = bad)
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Disclosure> disclosures;
};

/// Lexes one translation unit.
LexResult lex(std::string_view src);

/// Convenience for callers that only need the token stream.
std::vector<Token> tokenize(std::string_view src);

}  // namespace dauth::lex
