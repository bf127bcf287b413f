#include "taint_core.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "cpp_lexer.h"

namespace dauth::taint {
namespace {

using lex::Token;

// ---------------------------------------------------------------------------
// Small string helpers.

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True if `word` appears in `text` delimited by non-identifier characters —
/// so "Share" matches "crypto::ShamirShare" won't, but "ShamirShare" will.
bool word_in(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool in_set(const std::set<std::string, std::less<>>& s, std::string_view v) {
  return s.find(v) != s.end();
}

// ---------------------------------------------------------------------------
// Taint masks. Bit 0 = "carries secret material"; bit k+1 = "derived from
// parameter k of the enclosing function" (used to build interprocedural
// summaries). Functions with more than 62 parameters lose precision, which
// this codebase does not come close to.

constexpr std::uint64_t kSecretBit = 1;

constexpr std::uint64_t param_bit(int k) {
  return k < 62 ? (std::uint64_t{1} << (k + 1)) : 0;
}

constexpr std::uint64_t kAllParamBits = ~std::uint64_t{1};

// ---------------------------------------------------------------------------
// Vocabulary tables. Kept small and explicit: every entry is a reviewed
// policy decision, not a heuristic dial (docs/STATIC_ANALYSIS.md describes
// how to extend them).

/// Statement keywords that can never start a function definition or a call
/// we care about.
const std::set<std::string, std::less<>> kStmtKeywords = {
    "if",    "else",   "for",       "while",  "do",     "switch", "case",
    "break", "continue", "return",  "goto",   "new",    "delete", "sizeof",
    "throw", "try",    "catch",     "default", "static_assert", "co_return",
    "co_await", "co_yield", "alignof", "decltype"};

/// Calls whose RESULT is clean even when their arguments are secret: constant
/// -time comparison (one bit), MAC/signature computation and verification
/// (outputs are published by design), hashing (H(RES*) is the public index,
/// §4.2.2; a bundle's Merkle leaf hash is a sibling in every served path),
/// and SUCI deconcealment (recovers the identifier, not the key). Taint is
/// *laundered* through these — flows into them are never reported and their
/// return values start clean.
const std::set<std::string, std::less<>> kSanitizers = {
    "ct_equal",       "hmac_sha256",    "hmac_sha512", "sha256",
    "leaf_hash",      "merkle_leaf_hash", "ed25519_sign", "ed25519_verify",
    "hxres_index",    "deconceal_suci", "conceal_supi"};

/// Calls whose result carries every argument whole, whatever their summary
/// says: the wire codec's entry points build their bytes through a
/// message's field list (`T::fields(w, message)`), a flow into an encoder
/// that no summary records. A secret record encoded into a store put must
/// still read as secret there.
const std::set<std::string, std::less<>> kCarriers = {"encode", "signed_payload"};

/// Trailing accessors that yield metadata, not the secret bytes.
const std::set<std::string, std::less<>> kHarmlessTail = {
    "size", "length", "empty", "count", "str", "has_value", "c_str", "x", "id"};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

/// Names that denote sizes/counters, whatever struct they live in (a
/// `secret_length` is the public length of a secret, not the secret).
bool is_metadata_name(std::string_view name) {
  const std::string n = lower(name);
  return ends_with(n, "_length") || ends_with(n, "_len") || ends_with(n, "_size") ||
         ends_with(n, "_count");
}

/// Trailing accessors through which a parameter still flows whole (used for
/// the parameter bits only): f(p.begin(), p.end()) passes all of p.
const std::set<std::string, std::less<>> kPassthroughTail = {
    "begin", "end",  "data", "raw",  "c_str", "value",
    "get",   "take", "mutable_view", "span",  "front", "back"};

/// wire::Encoder serialization methods (sink T1): the per-kind writers and
/// the type-driven `field`/`tail` a message's field list calls.
const std::set<std::string, std::less<>> kWireMethods = {
    "u8",    "u16",   "u32",    "u64",    "i64",   "boolean",
    "raw",   "fixed", "bytes",  "string", "field", "tail"};

bool is_public_name(std::string_view name) {
  const std::string n = lower(name);
  if (contains(n, "public") || contains(n, "hxres") || contains(n, "hres")) return true;
  // RAND and AUTN travel in the clear over the air by design (TS 33.501);
  // matched exactly / by suffix so "random_key" stays secret.
  return n == "rand" || n == "autn" || ends_with(n, "_rand") || ends_with(n, "_autn");
}

/// Curve points (X25519Point et al.) are public by definition; only scalars
/// are secret.
bool type_is_public(std::string_view type) {
  return contains(lower(type), "public") || contains(type, "Point");
}

bool type_is_secret(std::string_view type) { return contains(type, "Secret"); }

// ---------------------------------------------------------------------------
// Program representation (pass 1 output).

struct Unit {
  std::string path;
  std::vector<Token> tokens;
  std::vector<lex::Disclosure> disclosures;
  std::vector<std::size_t> partner;        // bracket matching; npos if none
  std::map<int, const lex::Disclosure*> disclosed_lines;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

struct TypeInfo {
  std::vector<std::pair<std::string, std::string>> members;  // name, type
};

/// One declaration of a name: its type, and the tokens it is in scope for
/// ([from, to)). A parameter or a class member is in scope for the whole
/// body.
struct Decl {
  std::size_t from = 0;
  std::size_t to = kNone;
  std::string type;
};

struct Func {
  std::size_t unit = 0;
  std::size_t body_open = 0, body_close = 0;
  std::string class_name;  // enclosing/qualifying class, bare name
  std::set<std::string, std::less<>> template_params;  // its own and its class's
  FunctionSummary sum;
  std::map<std::string, std::vector<Decl>, std::less<>> vars;  // name -> its declarations
  std::map<std::string, int, std::less<>> param_index;
  // (declaration, chain) -> mask. A chain is keyed by the declaration its
  // root names (Decl::from; kNone when declared nowhere in the function), so
  // taint follows one variable, not every variable sharing its name.
  std::map<std::pair<std::size_t, std::string>, std::uint64_t> taint;
  std::map<int, std::string> param_sink_rule;  // param -> T-rule of interior sink
};

struct Program {
  std::vector<Unit> units;
  std::map<std::string, TypeInfo> types;
  std::set<std::string> carrying;  // names of secret-carrying types
  std::set<std::string> encoders;  // classes deriving from wire::Encoder
  std::vector<Func> funcs;
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_name;
};

bool is_ident(const std::vector<Token>& t, std::size_t i, std::string_view text = {}) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent &&
         (text.empty() || t[i].text == text);
}

bool is_punct(const std::vector<Token>& t, std::size_t i, std::string_view text) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == text;
}

void build_partners(Unit& u) {
  u.partner.assign(u.tokens.size(), kNone);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < u.tokens.size(); ++i) {
    if (u.tokens[i].kind != Token::Kind::kPunct) continue;
    const std::string& s = u.tokens[i].text;
    if (s == "(" || s == "[" || s == "{") {
      stack.push_back(i);
    } else if (s == ")" || s == "]" || s == "}") {
      static const std::map<char, char> kOpenFor = {{')', '('}, {']', '['}, {'}', '{'}};
      if (!stack.empty() && u.tokens[stack.back()].text[0] == kOpenFor.at(s[0])) {
        u.partner[stack.back()] = i;
        u.partner[i] = stack.back();
        stack.pop_back();
      }
    }
  }
}

/// Skips a template argument list starting at `i` (which must be "<").
/// Returns the index just past the matching ">", or kNone if it does not look
/// like a template list (comparison operators etc.). Bounded to keep the
/// heuristic from eating whole files on a stray "<".
std::size_t skip_angles(const Unit& u, std::size_t i) {
  if (!is_punct(u.tokens, i, "<")) return kNone;
  int depth = 0;
  const std::size_t limit = std::min(u.tokens.size(), i + 64);
  for (std::size_t j = i; j < limit; ++j) {
    const Token& tok = u.tokens[j];
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "<") ++depth;
      else if (tok.text == ">") {
        if (--depth == 0) return j + 1;
      } else if (tok.text == ">>") {
        depth -= 2;
        if (depth <= 0) return j + 1;
      } else if (tok.text == ";" || tok.text == "{" || tok.text == "}") {
        return kNone;
      } else if (tok.text == "(" || tok.text == "[") {
        if (u.partner[j] == kNone) return kNone;
        j = u.partner[j];
      }
    }
  }
  return kNone;
}

/// Renders tokens [a, b) as a readable type/expression string.
std::string render(const Unit& u, std::size_t a, std::size_t b) {
  std::string out;
  for (std::size_t i = a; i < b && i < u.tokens.size(); ++i) {
    if (!out.empty() && u.tokens[i].text != "::" &&
        (i == a || u.tokens[i - 1].text != "::"))
      out += ' ';
    out += u.tokens[i].text;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pass 1: parser. Walks namespace/class scopes, records struct members and
// function definitions with parameter lists and body token ranges.

struct Parser {
  Program& prog;
  std::size_t unit_idx;
  Unit& u;
  // Type parameters of the `template <...>` just read, for the function or
  // class it introduces, and those of the class template being scanned.
  std::set<std::string, std::less<>> pending_params;
  std::set<std::string, std::less<>> class_params;

  void parse() { scan_scope(0, u.tokens.size(), ""); }

  void scan_scope(std::size_t begin, std::size_t end, const std::string& class_name) {
    const std::vector<Token>& t = u.tokens;
    std::size_t i = begin;
    while (i < end) {
      if (t[i].kind == Token::Kind::kPunct) {
        if (t[i].text == "{" && u.partner[i] != kNone) {
          i = u.partner[i] + 1;  // stray brace (initializer): skip whole group
          continue;
        }
        if (t[i].text == ";") pending_params.clear();  // a declaration used them
        if (t[i].text == "~" && is_ident(t, i + 1) && is_punct(t, i + 2, "(")) {
          // Destructor: skip past its body (or declaration).
          i = skip_decl_or_body(i + 2);
          continue;
        }
        ++i;
        continue;
      }
      if (t[i].kind != Token::Kind::kIdent) {
        ++i;
        continue;
      }
      const std::string& word = t[i].text;
      if (word == "template") {
        const std::size_t past = skip_angles(u, i + 1);
        if (past == kNone) {
          ++i;
          continue;
        }
        for (std::size_t k = i + 2; k + 1 < past; ++k) {
          if ((is_ident(t, k, "typename") || is_ident(t, k, "class")) && is_ident(t, k + 1))
            pending_params.insert(t[k + 1].text);
        }
        i = past;
        continue;
      }
      if (word == "namespace") {
        std::size_t j = i + 1;
        while (is_ident(t, j) || is_punct(t, j, "::")) ++j;
        if (is_punct(t, j, "{") && u.partner[j] != kNone) {
          scan_scope(j + 1, u.partner[j], class_name);
          i = u.partner[j] + 1;
        } else {
          i = j + 1;  // namespace alias etc.
        }
        continue;
      }
      if (word == "enum") {
        std::size_t j = i + 1;
        if (is_ident(t, j, "class") || is_ident(t, j, "struct")) ++j;
        while (j < end && !is_punct(t, j, "{") && !is_punct(t, j, ";")) ++j;
        if (is_punct(t, j, "{") && u.partner[j] != kNone) j = u.partner[j];
        i = j + 1;
        continue;
      }
      if (word == "using" || word == "typedef" || word == "friend") {
        i = skip_decl_or_body(i + 1);
        continue;
      }
      if (word == "struct" || word == "class") {
        i = handle_struct(i, end, class_name);
        continue;
      }
      if (in_set(kStmtKeywords, word)) {
        ++i;
        continue;
      }
      const std::size_t next = try_function(i, begin, class_name);
      if (next != kNone) {
        i = next;
        continue;
      }
      ++i;
    }
  }

  /// From `i`, advances past the next `;` at depth 0 — or, if a `{` body
  /// appears first, past that body. Used for friend/using/destructor forms.
  std::size_t skip_decl_or_body(std::size_t i) {
    const std::vector<Token>& t = u.tokens;
    while (i < t.size()) {
      if (is_punct(t, i, ";")) return i + 1;
      if (is_punct(t, i, "{")) return u.partner[i] == kNone ? i + 1 : u.partner[i] + 1;
      if ((is_punct(t, i, "(") || is_punct(t, i, "[")) && u.partner[i] != kNone) {
        i = u.partner[i];
      }
      ++i;
    }
    return i;
  }

  std::size_t handle_struct(std::size_t i, std::size_t end, const std::string& outer) {
    const std::vector<Token>& t = u.tokens;
    if (!is_ident(t, i + 1)) return i + 1;  // anonymous struct
    const std::string name = t[i + 1].text;
    std::size_t j = i + 2;
    if (is_ident(t, j, "final")) ++j;
    while (j < end && !is_punct(t, j, "{") && !is_punct(t, j, ";") &&
           !is_punct(t, j, "(")) {
      const std::size_t past = is_punct(t, j, "<") ? skip_angles(u, j) : kNone;
      j = past == kNone ? j + 1 : past;
    }
    if (!is_punct(t, j, "{") || u.partner[j] == kNone) {
      pending_params.clear();
      return j + 1;  // fwd decl
    }
    for (std::size_t k = i + 2; k < j; ++k) {
      if (is_ident(t, k, "Encoder")) prog.encoders.insert(name);  // : wire::Encoder<name>
    }
    const std::size_t close = u.partner[j];
    parse_members(j + 1, close, prog.types[name]);
    const auto outer_params = std::exchange(class_params, std::move(pending_params));
    pending_params.clear();
    class_params.insert(outer_params.begin(), outer_params.end());
    scan_scope(j + 1, close, name);
    class_params = outer_params;
    (void)outer;
    return close + 1;
  }

  /// Records member-variable declarations of a struct body (depth 0 only).
  /// Member *functions* are filtered out by the presence of a parameter list.
  void parse_members(std::size_t begin, std::size_t end, TypeInfo& info) {
    const std::vector<Token>& t = u.tokens;
    std::vector<std::size_t> segment;  // token indices of the current statement
    bool had_paren = false;
    auto flush = [&] {
      // Drop access-specifier labels at the front.
      std::size_t start = 0;
      while (start + 1 < segment.size() &&
             (t[segment[start]].text == "public" || t[segment[start]].text == "private" ||
              t[segment[start]].text == "protected") &&
             is_punct(t, segment[start] + 1, ":"))
        start += 2;
      if (!had_paren && segment.size() - start >= 2) {
        // Truncate at '=' (default member initializer).
        std::size_t stop = segment.size();
        for (std::size_t k = start; k < segment.size(); ++k) {
          if (is_punct(t, segment[k], "=")) {
            stop = k;
            break;
          }
        }
        // Last identifier before the stop is the member name.
        std::size_t name_pos = kNone;
        for (std::size_t k = start; k < stop; ++k) {
          if (t[segment[k]].kind == Token::Kind::kIdent) name_pos = k;
        }
        bool banned = false;
        for (std::size_t k = start; k < stop; ++k) {
          const std::string& w = t[segment[k]].text;
          if (w == "using" || w == "friend" || w == "operator" || w == "enum" ||
              w == "struct" || w == "class" || w == "template" || w == "static_assert")
            banned = true;
        }
        if (!banned && name_pos != kNone && name_pos > start) {
          std::string type;
          for (std::size_t k = start; k < name_pos; ++k) {
            const std::string& w = t[segment[k]].text;
            if (w == "static" || w == "mutable" || w == "constexpr" || w == "inline")
              continue;
            if (!type.empty() && w != "::" && t[segment[k] - 1].text != "::") type += ' ';
            type += w;
          }
          info.members.emplace_back(t[segment[name_pos]].text, std::move(type));
        }
      }
      segment.clear();
      had_paren = false;
    };
    for (std::size_t i = begin; i < end; ++i) {
      if (is_punct(t, i, ";")) {
        flush();
        continue;
      }
      if (is_punct(t, i, "{")) {  // method body or brace-init: ends the segment
        flush();
        if (u.partner[i] != kNone) i = u.partner[i];
        continue;
      }
      if (is_punct(t, i, "(")) {
        had_paren = true;
        if (u.partner[i] != kNone) i = u.partner[i];
        continue;
      }
      if (is_punct(t, i, "[") && u.partner[i] != kNone) {
        i = u.partner[i];
        continue;
      }
      segment.push_back(i);
    }
    flush();
  }

  /// Attempts to parse a function definition whose name starts at `i`.
  /// Returns the index just past the body on success, kNone otherwise.
  std::size_t try_function(std::size_t i, std::size_t scope_begin,
                           const std::string& class_name) {
    const std::vector<Token>& t = u.tokens;
    // --- name chain: A::B<...>::name  (or `operator<<` / `operator ByteView`)
    std::vector<std::size_t> chain = {i};
    std::size_t j = i;
    std::string name = t[i].text;
    if (name == "operator") {
      // operator?? — absorb everything up to the parameter list.
      std::size_t k = i + 1;
      while (k < t.size() && k < i + 8 && !is_punct(t, k, "(")) {
        name += t[k].text;
        ++k;
      }
      // `operator()` names an empty suffix: the first "(" is part of the name.
      if (is_punct(t, k, "(") && is_punct(t, k + 1, ")") && is_punct(t, k + 2, "(")) {
        name += "()";
        k += 2;
      }
      if (!is_punct(t, k, "(")) return kNone;
      return finish_function(i, chain, name, k, scope_begin, class_name);
    }
    while (true) {
      std::size_t k = j + 1;
      const std::size_t past = is_punct(t, k, "<") ? skip_angles(u, k) : kNone;
      if (past != kNone) k = past;
      if (is_punct(t, k, "::") && is_ident(t, k + 1)) {
        j = k + 1;
        chain.push_back(j);
        continue;
      }
      if (is_punct(t, k, "::") && is_punct(t, k + 1, "~") && is_ident(t, k + 2)) {
        return kNone;  // out-of-line destructor: nothing to analyze
      }
      break;
    }
    name = t[chain.back()].text;
    std::size_t open = chain.back() + 1;
    const std::size_t past = is_punct(t, open, "<") ? skip_angles(u, open) : kNone;
    if (past != kNone) open = past;
    if (!is_punct(t, open, "(")) return kNone;
    if (in_set(kStmtKeywords, name)) return kNone;
    return finish_function(i, chain, name, open, scope_begin, class_name);
  }

  std::size_t finish_function(std::size_t i, const std::vector<std::size_t>& chain,
                              const std::string& name, std::size_t open,
                              std::size_t scope_begin, const std::string& class_name) {
    const std::vector<Token>& t = u.tokens;
    if (u.partner[open] == kNone) return kNone;
    const std::size_t close = u.partner[open];

    // --- preceding token must be statement-start or type material
    if (i > scope_begin) {
      const Token& p = t[i - 1];
      if (p.kind == Token::Kind::kPunct) {
        static const std::set<std::string, std::less<>> kOkPunct = {";", "}", "{", ">",
                                                                    "&", "*", ":"};
        if (!in_set(kOkPunct, p.text)) return kNone;
      } else if (p.kind == Token::Kind::kIdent) {
        if (in_set(kStmtKeywords, p.text) || p.text == "operator") return kNone;
      } else {
        return kNone;
      }
    }

    // --- trailer: qualifiers / ctor-initializers, ending at the body brace
    std::size_t q = close + 1;
    bool seen_colon = false;
    std::size_t body_open = kNone;
    while (q < t.size()) {
      const Token& tok = t[q];
      if (tok.kind == Token::Kind::kPunct) {
        if (tok.text == "{") {
          if (seen_colon && q > 0 && t[q - 1].kind == Token::Kind::kIdent) {
            // Member brace-initializer inside a ctor init list.
            if (u.partner[q] == kNone) return kNone;
            q = u.partner[q] + 1;
            continue;
          }
          body_open = q;
          break;
        }
        if (tok.text == ";" || tok.text == "=") return kNone;  // decl / deleted
        if (tok.text == "(") {
          if (u.partner[q] == kNone) return kNone;
          q = u.partner[q] + 1;
          continue;
        }
        if (tok.text == "<") {
          const std::size_t past = skip_angles(u, q);
          if (past == kNone) return kNone;
          q = past;
          continue;
        }
        if (tok.text == ":") seen_colon = true;
        static const std::set<std::string, std::less<>> kOkTrail = {
            "->", "::", "&", "&&", "*", ",", ":", ">"};
        if (!in_set(kOkTrail, tok.text)) return kNone;
        ++q;
        continue;
      }
      ++q;  // identifiers/numbers in trailers (const, noexcept, init names, ...)
    }
    if (body_open == kNone || u.partner[body_open] == kNone) return kNone;

    Func f;
    f.unit = unit_idx;
    f.body_open = body_open;
    f.body_close = u.partner[body_open];
    f.sum.file = u.path;
    f.sum.line = t[i].line;
    f.sum.name = name;
    if (chain.size() > 1) {
      f.class_name = t[chain[chain.size() - 2]].text;
    } else {
      f.class_name = class_name;
    }
    f.sum.qualified = f.class_name.empty() ? name : f.class_name + "::" + name;
    f.template_params = std::move(pending_params);
    pending_params.clear();
    f.template_params.insert(class_params.begin(), class_params.end());

    // --- return type: walk back from the name to the statement boundary
    std::size_t rt_begin = i;
    while (rt_begin > scope_begin) {
      const Token& p = t[rt_begin - 1];
      if (p.kind == Token::Kind::kIdent) {
        if (in_set(kStmtKeywords, p.text)) break;
        --rt_begin;
        continue;
      }
      if (p.kind == Token::Kind::kPunct &&
          (p.text == "::" || p.text == "<" || p.text == ">" || p.text == "&" ||
           p.text == "*" || p.text == ",")) {
        --rt_begin;
        continue;
      }
      break;
    }
    {
      std::string rt;
      for (std::size_t ti = rt_begin; ti < i; ++ti) {
        const std::string& w = t[ti].text;
        if (w == "static" || w == "inline" || w == "constexpr" || w == "explicit" ||
            w == "virtual" || w == "extern" || w == "friend")
          continue;
        if (!rt.empty() && w != "::" && (ti == rt_begin || t[ti - 1].text != "::"))
          rt += ' ';
        rt += w;
      }
      f.sum.return_type = std::move(rt);
    }

    parse_params(open, close, f);
    prog.by_name[name].push_back(prog.funcs.size());
    prog.funcs.push_back(std::move(f));
    return u.partner[body_open] + 1;
  }

  void parse_params(std::size_t open, std::size_t close, Func& f) {
    const std::vector<Token>& t = u.tokens;
    std::vector<std::pair<std::size_t, std::size_t>> pieces;
    std::size_t start = open + 1;
    int angle = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      if (t[i].kind == Token::Kind::kPunct) {
        const std::string& s = t[i].text;
        if ((s == "(" || s == "[" || s == "{") && u.partner[i] != kNone) {
          i = u.partner[i];
          continue;
        }
        if (s == "<") ++angle;
        if (s == ">" && angle > 0) --angle;
        if (s == ">>" && angle > 0) angle = std::max(0, angle - 2);
        if (s == "," && angle == 0) {
          pieces.emplace_back(start, i);
          start = i + 1;
        }
      }
    }
    if (start < close) pieces.emplace_back(start, close);

    for (const auto& [a, b] : pieces) {
      std::size_t stop = b;
      for (std::size_t k = a; k < b; ++k) {
        if (is_punct(t, k, "=")) {
          stop = k;
          break;
        }
      }
      std::size_t name_pos = kNone;
      std::size_t ident_count = 0;
      for (std::size_t k = a; k < stop; ++k) {
        if ((is_punct(t, k, "(") || is_punct(t, k, "[")) && u.partner[k] != kNone) {
          k = u.partner[k];
          continue;
        }
        if (t[k].kind == Token::Kind::kIdent && t[k].text != "const" &&
            t[k].text != "volatile") {
          name_pos = k;
          ++ident_count;
        }
      }
      if (ident_count == 0) continue;
      Param p;
      if (ident_count == 1) {
        p.type = render(u, a, stop);  // unnamed parameter
      } else {
        p.name = t[name_pos].text;
        p.type = render(u, a, name_pos);
      }
      if (p.type == "void" && p.name.empty()) continue;
      if (!p.name.empty()) {
        f.param_index[p.name] = static_cast<int>(f.sum.params.size());
        f.vars[p.name] = {{0, kNone, p.type}};
      }
      f.sum.params.push_back(std::move(p));
    }
  }
};

// ---------------------------------------------------------------------------
// Secret-carrying type computation: a type carries secret material if its
// name says Secret, if a member's name matches the secret lexicon (and its
// type is not an explicitly Public one), if a member is Secret-typed, or —
// transitively — if a member's type is itself carrying.

void compute_carrying(Program& prog) {
  for (const auto& [name, info] : prog.types) {
    if (type_is_secret(name)) {
      prog.carrying.insert(name);
      continue;
    }
    for (const auto& [mname, mtype] : info.members) {
      if ((lint::is_secret_component(mname) && !type_is_public(mtype)) ||
          type_is_secret(mtype)) {
        prog.carrying.insert(name);
        break;
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, info] : prog.types) {
      if (prog.carrying.count(name)) continue;
      for (const auto& [mname, mtype] : info.members) {
        bool hit = false;
        for (const std::string& c : prog.carrying) {
          if (word_in(mtype, c)) {
            hit = true;
            break;
          }
        }
        if (hit) {
          prog.carrying.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
}

bool type_is_carrying(const Program& prog, std::string_view type) {
  if (type_is_secret(type)) return true;
  for (const std::string& c : prog.carrying) {
    if (word_in(type, c)) return true;
  }
  return false;
}

/// True when no value of declared type `type` can hold secret bytes: every
/// word of it (namespace qualifiers aside) is a scalar, a standard wrapper or
/// a struct that carries no secret. Raw buffers (Bytes, strings, byte
/// arrays) are not, and neither are aliases the parser cannot see through
/// (crypto::Key256 is a Secret<32>).
bool type_is_inert(const Program& prog, std::string_view type) {
  static const std::set<std::string, std::less<>> kInertWords = {
      "std",      "const",   "bool",    "int",    "unsigned", "size_t", "uint16_t", "uint32_t",
      "uint64_t", "int32_t", "int64_t", "double", "vector",   "optional", "map",  "pair"};
  bool any = false;
  std::string word;
  for (std::size_t i = 0; i <= type.size(); ++i) {
    if (i < type.size() && ident_char(type[i])) {
      word += type[i];
      continue;
    }
    const bool qualifier = type.substr(i, 2) == "::";
    if (!word.empty() && !qualifier) {
      const bool clean_struct = prog.types.count(word) != 0 && prog.carrying.count(word) == 0;
      if (!in_set(kInertWords, word) && !clean_struct) return false;
      any = true;
    }
    word.clear();
  }
  return any;
}

// ---------------------------------------------------------------------------
// Pass 2: the taint engine.

struct Chain {
  std::vector<std::string> comps;
  std::vector<char> called;  // parallel to comps: component is invoked `(...)`
  std::size_t root = kNone;  // token index of the first component
  int line = 0;
};

std::string joined(const Chain& c) {
  std::string out;
  for (const std::string& s : c.comps) {
    if (!out.empty()) out += '.';
    out += s;
  }
  return out;
}

struct Engine {
  Program& prog;
  Func& f;
  Unit& u;
  bool report = false;
  std::vector<lint::Finding>* out = nullptr;
  bool changed = false;

  const std::vector<Token>& t() const { return u.tokens; }

  // --- taint-map update with change tracking
  void add_taint(std::size_t decl, const std::string& chain, std::uint64_t mask) {
    if (mask == 0) return;
    std::uint64_t& slot = f.taint[{decl, chain}];
    if ((slot | mask) != slot) {
      slot |= mask;
      changed = true;
    }
  }

  /// The declaration a chain's root names: the nearest declaration of its
  /// name whose scope holds the root's token. nullptr when none does.
  const Decl* root_decl(const Chain& c) const {
    const auto it = f.vars.find(c.comps[0]);
    if (it == f.vars.end()) return nullptr;
    const Decl* nearest = nullptr;
    for (const Decl& d : it->second) {
      if (d.from <= c.root && c.root < d.to && (nearest == nullptr || d.from > nearest->from))
        nearest = &d;
    }
    return nearest;
  }

  /// The declared type of a chain's root; empty when it is declared nowhere.
  std::string var_type(const Chain& c) const {
    const Decl* d = root_decl(c);
    return d == nullptr ? std::string() : d->type;
  }

  /// The taint-map declaration key of a chain's root.
  std::size_t decl_key(const Chain& c) const {
    const Decl* d = root_decl(c);
    return d == nullptr ? kNone : d->from;
  }

  /// True when a declared type names one of the function's template type
  /// parameters (`Out& out`, a field list's `F& f` and `Self& m`).
  bool is_template_param(std::string_view type) const {
    for (const std::string& p : f.template_params) {
      if (word_in(type, p)) return true;
    }
    return false;
  }

  /// The struct a variable of declared type `type` is: the struct the type
  /// names, or the enclosing class for a template parameter (a field list's
  /// `Self& m` is its own message). nullptr when unknown.
  const TypeInfo* owner_of(std::string_view type) const {
    if (type.empty()) return nullptr;
    if (is_template_param(type)) {
      const auto it = prog.types.find(f.class_name);
      return it == prog.types.end() ? nullptr : &it->second;
    }
    std::string word;
    for (std::size_t i = 0; i <= type.size(); ++i) {
      if (i < type.size() && ident_char(type[i])) {
        word += type[i];
        continue;
      }
      if (const auto it = prog.types.find(word); it != prog.types.end()) return &it->second;
      word.clear();
    }
    return nullptr;
  }

  /// A wire::Encoder receiver: a Writer, an Encoder or a class deriving from
  /// one, or a template parameter, since generic code may be instantiated
  /// with any encoder.
  bool is_encoder(std::string_view type) const {
    const std::string t = lower(type);
    if (contains(t, "writer") || contains(t, "encoder") || is_template_param(type)) return true;
    for (const std::string& e : prog.encoders) {
      if (word_in(type, e)) return true;
    }
    return false;
  }

  /// Builds the access chain rooted at token `i` (an identifier). Follows
  /// `.`, `->` and `::` through any intervening call/subscript groups.
  Chain build_chain(std::size_t i) const {
    Chain c;
    c.root = i;
    c.line = t()[i].line;
    c.comps.push_back(t()[i].text);
    c.called.push_back(is_call_at(i + 1));
    std::size_t j = i;
    while (true) {
      std::size_t k = j + 1;
      while ((is_punct(t(), k, "(") || is_punct(t(), k, "[")) && u.partner[k] != kNone)
        k = u.partner[k] + 1;
      const std::size_t past = is_punct(t(), k, "<") ? skip_angles(u, k) : kNone;
      if (past != kNone && is_punct(t(), past, "(")) k = past;  // f<32>(...)
      if ((is_punct(t(), k, ".") || is_punct(t(), k, "->") || is_punct(t(), k, "::")) &&
          is_ident(t(), k + 1)) {
        j = k + 1;
        c.comps.push_back(t()[j].text);
        c.called.push_back(is_call_at(j + 1));
        continue;
      }
      break;
    }
    return c;
  }

  /// True when the token at `k` opens an argument list (possibly after
  /// explicit template arguments): the preceding component is a call, not a
  /// data member. `x.span()` is an accessor; `x.span` is a field.
  char is_call_at(std::size_t k) const {
    const std::size_t past = is_punct(t(), k, "<") ? skip_angles(u, k) : kNone;
    if (past != kNone) k = past;
    return is_punct(t(), k, "(") ? 1 : 0;
  }

  /// The core classification: what does this access chain carry?
  std::uint64_t classify(const Chain& c) const {
    // Public overrides beat everything: H(XRES*) indexes, *_public keys, ...
    for (const std::string& comp : c.comps) {
      if (is_public_name(comp)) return 0;
    }
    const std::string root_type = var_type(c);
    if (!root_type.empty() && type_is_public(root_type)) return 0;
    // A member declared with a public type (a public key, a curve point) is
    // public whatever its name, and so is anything inside it; one declared
    // Secret<N>/SecretBytes is secret whatever its name; one of an inert
    // type (a scalar, a struct carrying no secret) holds no secret bytes, so
    // it takes no taint from its root, only from a flow into it exactly.
    std::uint64_t mask = 0;
    bool inert_member = false;
    if (c.comps.size() > 1) {
      if (const TypeInfo* owner = owner_of(root_type)) {
        for (const auto& [mname, mtype] : owner->members) {
          if (mname != c.comps[1]) continue;
          if (type_is_public(mtype)) return 0;
          if (type_is_secret(mtype)) mask |= kSecretBit;
          inert_member = type_is_inert(prog, mtype);
        }
      }
    }
    // A harmless trailing accessor yields metadata (size, emptiness, the
    // public x-coordinate of a share), not the secret bytes.
    if (c.comps.size() > 1 && (in_set(kHarmlessTail, c.comps.back()) ||
                               is_metadata_name(c.comps.back())))
      return 0;
    // A sanitizer invoked as `ns::fn(...)` or `obj.fn(...)`: the result is
    // laundered even though the chain mentions a secret-named base.
    if (c.comps.size() > 1 && in_set(kSanitizers, c.comps.back())) return 0;

    for (const std::string& comp : c.comps) {
      if (lint::is_secret_component(comp)) mask |= kSecretBit;
    }
    // Exact access path, or anything reached from an already-tainted root
    // variable. Deliberately NOT: tainting the root because a subfield is
    // tainted (that smear is what makes naive field-insensitive analyses
    // unusable on message structs).
    const std::size_t decl = decl_key(c);
    const auto exact = f.taint.find({decl, joined(c)});
    if (exact != f.taint.end()) mask |= exact->second;
    const auto root = f.taint.find({decl, c.comps[0]});
    if (root != f.taint.end() && !inert_member) mask |= root->second;
    // Whole values of secret-carrying types, and their serialized forms.
    if (!root_type.empty() && type_is_carrying(prog, root_type)) {
      if (c.comps.size() == 1) mask |= kSecretBit;
      else if (c.comps.back() == "encode" || c.comps.back() == "signed_payload")
        mask |= kSecretBit;
    }
    // Parameter provenance (for interprocedural summaries): the parameter
    // passed whole, possibly through a pass-through accessor (p.begin(), ...).
    const auto pit = f.param_index.find(c.comps[0]);
    if (pit != f.param_index.end()) {
      bool whole = true;
      for (std::size_t k = 1; k < c.comps.size(); ++k) {
        // A passthrough accessor must be *invoked*: `p.data()` hands over
        // p's bytes, but `p.data` is some member that happens to share the
        // name (e.g. a trace context member named `span`).
        if (!(in_set(kPassthroughTail, c.comps[k]) && k < c.called.size() &&
              c.called[k] != 0))
          whole = false;
      }
      if (whole) mask |= param_bit(pit->second);
    }
    return mask;
  }

  /// Resolves a call to a summarized function, or nullptr when unknown or
  /// ambiguous. Ambiguity is resolved quietly (no taint) — the carrying-type
  /// rules in classify() catch the flows that matter regardless.
  const Func* resolve(const std::string& name, const Chain* base, bool via_scope) const {
    const auto it = prog.by_name.find(name);
    if (it == prog.by_name.end()) return nullptr;
    std::vector<const Func*> cands;
    for (std::size_t idx : it->second) cands.push_back(&prog.funcs[idx]);
    if (base != nullptr && !base->comps.empty()) {
      std::vector<const Func*> filtered;
      if (via_scope) {  // Type::name(...)
        for (const Func* c : cands) {
          if (c->class_name == base->comps.back()) filtered.push_back(c);
        }
      } else {  // obj.name(...) — match the object's declared type
        const std::string bt = var_type(*base);
        if (!bt.empty()) {
          for (const Func* c : cands) {
            if (!c->class_name.empty() && word_in(bt, c->class_name)) filtered.push_back(c);
          }
        }
      }
      if (!filtered.empty()) cands = std::move(filtered);
      else if (!via_scope && !var_type(*base).empty())
        return nullptr;  // typed object, but no candidate method matches
    }
    if (cands.size() == 1) return cands[0];
    // Multiple definitions share the name: only safe if their effects agree.
    for (std::size_t ci = 1; ci < cands.size(); ++ci) {
      if (cands[ci]->sum.returns_secret != cands[0]->sum.returns_secret ||
          cands[ci]->sum.params_to_return != cands[0]->sum.params_to_return ||
          cands[ci]->sum.params_to_sink != cands[0]->sum.params_to_sink)
        return nullptr;
    }
    return cands.empty() ? nullptr : cands[0];
  }

  /// True when token `i` begins a lambda introducer `[...]` (as opposed to a
  /// subscript, which always follows a value).
  bool is_lambda_intro(std::size_t i) const {
    if (!is_punct(t(), i, "[") || u.partner[i] == kNone) return false;
    if (i == 0) return true;
    const Token& p = t()[i - 1];
    if (p.kind == Token::Kind::kIdent)
      return in_set(kStmtKeywords, p.text);  // `return [..]{..}` is a lambda
    if (p.kind == Token::Kind::kPunct)
      return p.text != ")" && p.text != "]";
    return false;
  }

  /// Skips the whole lambda (capture list + params + body) starting at the
  /// `[` of its introducer. Returns the index just past it.
  std::size_t skip_lambda(std::size_t i) const {
    std::size_t j = u.partner[i] + 1;
    if (is_punct(t(), j, "(") && u.partner[j] != kNone) j = u.partner[j] + 1;
    while (j < t().size() && !is_punct(t(), j, "{")) {
      if (is_punct(t(), j, ";") || is_punct(t(), j, ")")) return j;  // not a lambda
      ++j;
    }
    if (is_punct(t(), j, "{") && u.partner[j] != kNone) return u.partner[j] + 1;
    return j;
  }

  /// Taint mask of an expression region [a, b): the union over every access
  /// chain in it, skipping sanitizer-call interiors and lambda literals. A
  /// call to a summarized callee contributes only what its summary returns:
  /// a returned secret, and each argument it carries into its result.
  std::uint64_t region_mask(std::size_t a, std::size_t b) const {
    std::uint64_t mask = 0;
    for (std::size_t i = a; i < b; ++i) {
      const Token& tok = t()[i];
      if (tok.kind == Token::Kind::kPunct) {
        if (is_lambda_intro(i)) {
          i = skip_lambda(i) - 1;
        }
        continue;
      }
      if (tok.kind != Token::Kind::kIdent) continue;
      // Sanitizers launder taint: skip the whole call.
      if (in_set(kSanitizers, tok.text)) {
        std::size_t open = i + 1;
        const std::size_t past = is_punct(t(), open, "<") ? skip_angles(u, open) : kNone;
        if (past != kNone) open = past;
        if (is_punct(t(), open, "(") && u.partner[open] != kNone) {
          i = u.partner[open];
          continue;
        }
      }
      // Root identifiers only; continuations were counted with their root.
      if (i > 0) {
        const Token& p = t()[i - 1];
        if (p.kind == Token::Kind::kPunct &&
            (p.text == "." || p.text == "->" || p.text == "::"))
          continue;
      }
      if (in_set(kStmtKeywords, tok.text)) continue;
      const Chain c = build_chain(i);
      mask |= classify(c);
      // A chain that ends in a sanitizer call is laundered whole, as
      // classify() reads it: what its earlier calls carry goes into the
      // sanitizer, not past it.
      std::uint64_t calls = 0;
      i = read_calls(c, calls) - 1;
      if (c.comps.size() < 2 || !in_set(kSanitizers, c.comps.back())) mask |= calls;
    }
    return mask;
  }

  /// Token index of each component of a chain.
  std::vector<std::size_t> comp_indices(const Chain& c) const {
    std::vector<std::size_t> at{c.root};
    for (std::size_t n = 1; n < c.comps.size(); ++n) {
      std::size_t k = at.back() + 1;
      while ((is_punct(t(), k, "(") || is_punct(t(), k, "[")) && u.partner[k] != kNone)
        k = u.partner[k] + 1;
      const std::size_t past = is_punct(t(), k, "<") ? skip_angles(u, k) : kNone;
      if (past != kNone && is_punct(t(), past, "(")) k = past;
      at.push_back(k + 1);  // the identifier after the separator
    }
    return at;
  }

  /// Adds to `mask` what the groups of chain `c` carry: each call to a
  /// summarized callee, wherever it sits in the chain, contributes only its
  /// summary's return (a returned secret, and each argument it carries into
  /// its result); every other argument list or subscript is an ordinary
  /// region. Returns the index just past the chain's last call.
  std::size_t read_calls(const Chain& c, std::uint64_t& mask) const {
    const std::vector<std::size_t> at = comp_indices(c);
    std::size_t end = at.back() + 1;
    for (std::size_t n = 0; n < at.size(); ++n) {
      std::size_t open = at[n] + 1;
      const std::size_t past = is_punct(t(), open, "<") ? skip_angles(u, open) : kNone;
      if (past != kNone && is_punct(t(), past, "(")) open = past;
      std::size_t rest = at[n] + 1;  // what follows the component's own call
      if (is_punct(t(), open, "(") && u.partner[open] != kNone) {
        mask |= call_mask(c, at, n, open);
        rest = u.partner[open] + 1;
      }
      if (n + 1 < at.size()) {
        mask |= region_mask(rest, at[n + 1]);  // subscripts, later groups
      } else {
        end = rest;
      }
    }
    return end;
  }

  /// What the call of component `n` of chain `c`, whose argument list opens
  /// at `open`, carries into its result.
  std::uint64_t call_mask(const Chain& c, const std::vector<std::size_t>& at, std::size_t n,
                          std::size_t open) const {
    const std::string& name = c.comps[n];
    if (in_set(kSanitizers, name)) return 0;
    const std::size_t close = u.partner[open];
    Chain base = c;
    base.comps.resize(n);
    base.called.resize(n);
    const bool via_scope = n > 0 && is_punct(t(), at[n] - 1, "::");
    const Func* callee = resolve(name, n > 0 ? &base : nullptr, via_scope);
    if (callee == nullptr) return region_mask(open + 1, close);
    std::uint64_t mask = callee->sum.returns_secret ? kSecretBit : 0;
    if (in_set(kCarriers, name)) return mask | region_mask(open + 1, close);
    const auto args = split_args(open, close);
    for (std::size_t k = 0; k < args.size(); ++k) {
      if (callee->sum.params_to_return & param_bit(static_cast<int>(k)))
        mask |= region_mask(args[k].first, args[k].second);
    }
    return mask;
  }

  /// Builds the chain ENDING at token `i` (used for assignment left sides):
  /// walks left over `]`/`)` groups and separator-joined identifiers.
  Chain left_chain(std::size_t i) const {
    std::vector<std::string> rev;
    std::size_t j = i;
    int line = 0;
    std::size_t root = kNone;
    while (true) {
      while (j != kNone && j < t().size() &&
             (is_punct(t(), j, "]") || is_punct(t(), j, ")")) && u.partner[j] != kNone &&
             u.partner[j] > 0) {
        j = u.partner[j] - 1;
      }
      if (j == kNone || j >= t().size() || t()[j].kind != Token::Kind::kIdent) break;
      rev.push_back(t()[j].text);
      line = t()[j].line;
      root = j;
      if (j == 0) break;
      const Token& p = t()[j - 1];
      if (p.kind == Token::Kind::kPunct &&
          (p.text == "." || p.text == "->" || p.text == "::")) {
        if (j < 2) break;
        j -= 2;
        continue;
      }
      break;
    }
    Chain c;
    std::reverse(rev.begin(), rev.end());
    c.comps = std::move(rev);
    c.root = root;
    c.line = line;
    return c;
  }

  // --- disclosure lookup --------------------------------------------------
  const lex::Disclosure* disclosure_at(int line) const {
    const auto it = u.disclosed_lines.find(line);
    return it == u.disclosed_lines.end() ? nullptr : it->second;
  }

  void emit(int line, const std::string& rule, std::string message) {
    if (report && out != nullptr)
      out->push_back({u.path, line, rule, std::move(message)});
  }

  // --- sink classification --------------------------------------------------
  /// Returns the T-rule for a call `base.method(...)`, or "" if not a sink.
  std::string sink_rule(const std::string& method, const Chain* base) const {
    const std::string root_type =
        base != nullptr && !base->comps.empty() ? lower(var_type(*base)) : "";
    if (in_set(kWireMethods, method)) {
      if (base != nullptr) return is_encoder(var_type(*base)) ? "T1" : "";
      return is_encoder(f.class_name) ? "T1" : "";
    }
    if (method == "to_hex") return "T2";
    if (method == "put" || method == "append") {
      if (base == nullptr || base->comps.empty()) return "";
      const std::string root = lower(base->comps[0]);
      if (contains(root_type, "kvstore") || contains(root_type, "wal") ||
          contains(root, "store") || contains(root, "wal") || contains(root, "kv"))
        return "T3";
      return "";
    }
    if (method == "call") {
      if (base != nullptr && !base->comps.empty() && contains(lower(base->comps[0]), "rpc"))
        return "T4";
      return "";
    }
    if (method == "reply") return "T4";
    if (method == "set_attr" || method == "attr" || method == "annotate") {
      // T6: span attributes are exported verbatim (Chrome trace JSON, text
      // trees), so a tainted value attached to a tracer/span is a disclosure
      // even though obs::AttrValue's deleted byte-ctors catch the typed case.
      if (base == nullptr || base->comps.empty()) return "";
      const std::string root = lower(base->comps[0]);
      if (contains(root_type, "tracer") || contains(root_type, "span") ||
          contains(root, "tracer") || contains(root, "span"))
        return "T6";
      return "";
    }
    return "";
  }

  static std::string sink_noun(const std::string& rule) {
    if (rule == "T1") return "the wire encoder";
    if (rule == "T2") return "a log/hex formatter";
    if (rule == "T3") return "persistent storage";
    if (rule == "T6") return "a trace span attribute";
    return "the network";
  }

  // --- the passes -----------------------------------------------------------

  void seed() {
    // Parameters and class members with Secret-typed declarations.
    for (const auto& [name, decls] : f.vars) {
      for (const Decl& d : decls) {
        if (type_is_secret(d.type)) add_taint(d.from, name, kSecretBit);
      }
    }
    // Inside Secret<N>/SecretBytes themselves every data member is secret.
    if (type_is_secret(f.class_name)) {
      const auto it = prog.types.find(f.class_name);
      if (it != prog.types.end()) {
        // Members are declared for the whole body (Decl::from 0).
        for (const auto& [mname, mtype] : it->second.members) add_taint(0, mname, kSecretBit);
      }
    }
    // Return type that is itself secret material.
    if (type_is_secret(f.sum.return_type)) set_returns_secret();
    std::size_t pos = 0;
    const std::string& rt = f.sum.return_type;
    std::string word;
    for (std::size_t i = 0; i <= rt.size(); ++i) {
      if (i < rt.size() && ident_char(rt[i])) {
        word += rt[i];
        continue;
      }
      if (!word.empty() && lint::is_secret_component(word)) set_returns_secret();
      word.clear();
    }
    (void)pos;
  }

  void set_returns_secret() {
    if (!f.sum.returns_secret) {
      f.sum.returns_secret = true;
      changed = true;
    }
  }

  /// The token that ends the scope of a declaration made inside group
  /// `open` (a `{` or `(` token; kNone for the body itself). A declaration in
  /// a parenthesis (a for/if/while head, a lambda's parameters) lives
  /// through the block that follows it.
  std::size_t scope_end(std::size_t open) const {
    if (open == kNone) return f.body_close;
    if (is_punct(t(), open, "{")) return u.partner[open];
    std::size_t k = u.partner[open] + 1;
    while (is_ident(t(), k)) ++k;  // mutable, noexcept
    if (is_punct(t(), k, "{") && u.partner[k] != kNone) return u.partner[k];
    return u.partner[open];
  }

  void scan_declarations() {
    const std::vector<Token>& tk = t();
    std::vector<std::size_t> groups;  // the open `{`/`(` groups around token i
    for (std::size_t i = f.body_open + 1; i < f.body_close; ++i) {
      while (!groups.empty() && u.partner[groups.back()] < i) groups.pop_back();
      if ((is_punct(tk, i, "{") || is_punct(tk, i, "(")) && u.partner[i] != kNone)
        groups.push_back(i);
      if (!is_ident(tk, i)) continue;
      if (i > 0) {
        const Token& p = tk[i - 1];
        const bool boundary =
            p.kind == Token::Kind::kPunct &&
            (p.text == ";" || p.text == "{" || p.text == "}" || p.text == "(" ||
             p.text == ",");
        if (!boundary) continue;
      }
      // [const|static|...]* TypeChain [&*]* name (= | ; | { | ( | : | ))
      std::size_t j = i;
      while (is_ident(tk, j, "const") || is_ident(tk, j, "static") ||
             is_ident(tk, j, "constexpr") || is_ident(tk, j, "mutable"))
        ++j;
      if (!is_ident(tk, j) || in_set(kStmtKeywords, tk[j].text)) continue;
      const std::size_t type_begin = j;
      std::size_t past = is_punct(tk, j + 1, "<") ? skip_angles(u, j + 1) : kNone;
      std::size_t type_end = past == kNone ? j + 1 : past;
      while (is_punct(tk, type_end, "::") && is_ident(tk, type_end + 1)) {
        j = type_end + 1;
        past = is_punct(tk, j + 1, "<") ? skip_angles(u, j + 1) : kNone;
        type_end = past == kNone ? j + 1 : past;
      }
      std::size_t np = type_end;
      while (is_punct(tk, np, "&") || is_punct(tk, np, "*") || is_punct(tk, np, "&&")) ++np;
      if (np == type_end) {
        // No ref/pointer: require at least type + name (two tokens).
      }
      if (!is_ident(tk, np) || np == type_begin) continue;
      const std::size_t name_pos = np;
      const Token& after = np + 1 < tk.size() ? tk[np + 1] : tk[np];
      const bool ends = after.kind == Token::Kind::kPunct &&
                        (after.text == "=" || after.text == ";" || after.text == "{" ||
                         after.text == "(" || after.text == ":" || after.text == ")");
      if (!ends) continue;
      const std::string name = tk[name_pos].text;
      const std::string type = render(u, type_begin, type_end);
      std::vector<Decl>& decls = f.vars[name];
      if (std::ranges::none_of(decls, [&](const Decl& d) { return d.from == name_pos; })) {
        decls.push_back({name_pos, scope_end(groups.empty() ? kNone : groups.back()), type});
      }
      if (type_is_secret(type)) add_taint(name_pos, name, kSecretBit);
      // Paren/brace initializers propagate here; '=' is the assignment pass.
      if ((after.text == "{" || after.text == "(") && u.partner[np + 1] != kNone) {
        add_taint(name_pos, name, region_mask(np + 2, u.partner[np + 1]));
      }
    }
  }

  void scan_assignments() {
    const std::vector<Token>& tk = t();
    static const std::set<std::string, std::less<>> kAssignOps = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};
    for (std::size_t i = f.body_open + 1; i < f.body_close; ++i) {
      if (tk[i].kind != Token::Kind::kPunct || !in_set(kAssignOps, tk[i].text)) continue;
      if (i > 0 && tk[i - 1].kind == Token::Kind::kPunct &&
          (tk[i - 1].text == "<" || tk[i - 1].text == ">" || tk[i - 1].text == "!" ||
           tk[i - 1].text == "=" || tk[i - 1].text == "*" || tk[i - 1].text == "&"))
        continue;  // <=, >=, != spelled as two tokens, *=-like fragments
      if (i > 0 && is_ident(tk, i - 1, "operator")) continue;
      const Chain lhs = left_chain(i - 1);
      if (lhs.comps.empty()) continue;
      // Right side: up to the statement end at this nesting level.
      std::size_t j = i + 1;
      while (j < f.body_close) {
        const Token& tok = tk[j];
        if (tok.kind == Token::Kind::kPunct) {
          if (tok.text == ";" || tok.text == ")" || tok.text == "]" || tok.text == "}" ||
              tok.text == ",")
            break;
          if ((tok.text == "(" || tok.text == "[" || tok.text == "{") &&
              u.partner[j] != kNone) {
            j = u.partner[j] + 1;
            continue;
          }
        }
        ++j;
      }
      add_taint(decl_key(lhs), joined(lhs), region_mask(i + 1, j));
    }
  }

  void scan_returns() {
    const std::vector<Token>& tk = t();
    for (std::size_t i = f.body_open + 1; i < f.body_close; ++i) {
      if (!is_ident(tk, i, "return")) continue;
      std::size_t j = i + 1;
      while (j < f.body_close && !is_punct(tk, j, ";")) {
        if ((is_punct(tk, j, "(") || is_punct(tk, j, "[") || is_punct(tk, j, "{")) &&
            u.partner[j] != kNone) {
          j = u.partner[j] + 1;
          continue;
        }
        ++j;
      }
      const std::uint64_t mask = region_mask(i + 1, j);
      if (mask & kSecretBit) set_returns_secret();
      const std::uint64_t params = mask & kAllParamBits;
      if ((f.sum.params_to_return | params) != f.sum.params_to_return) {
        f.sum.params_to_return |= params;
        changed = true;
      }
    }
  }

  void note_param_sink(std::uint64_t params, const std::string& rule) {
    if ((f.sum.params_to_sink | params) != f.sum.params_to_sink) {
      f.sum.params_to_sink |= params;
      changed = true;
    }
    for (int k = 0; k < 62; ++k) {
      if (params & param_bit(k)) f.param_sink_rule.emplace(k, rule);
    }
  }

  void scan_calls_and_streams() {
    const std::vector<Token>& tk = t();
    for (std::size_t i = f.body_open + 1; i < f.body_close; ++i) {
      if (is_punct(tk, i, "<<")) {
        check_stream(i);
        continue;
      }
      if (!is_ident(tk, i) || in_set(kStmtKeywords, tk[i].text)) continue;
      std::size_t open = i + 1;
      const std::size_t past = is_punct(tk, open, "<") ? skip_angles(u, open) : kNone;
      if (past != kNone) open = past;
      if (!is_punct(tk, open, "(") || u.partner[open] == kNone) continue;
      const std::string& m = tk[i].text;
      const int line = tk[i].line;
      const std::size_t close = u.partner[open];

      // Base object / scope qualifier, if any.
      std::optional<Chain> base;
      bool via_scope = false;
      if (i > 0 && tk[i - 1].kind == Token::Kind::kPunct) {
        const std::string& sep = tk[i - 1].text;
        if (sep == "." || sep == "->" || sep == "::") {
          base = left_chain(i - 2);
          via_scope = sep == "::";
          if (base->comps.empty()) base.reset();
        }
      }

      // memcpy/memmove copy taint from source args into the destination.
      if (m == "memcpy" || m == "memmove") {
        handle_memcpy(open, close);
        continue;
      }
      if (in_set(kSanitizers, m)) continue;  // flows in are laundered

      const auto args = split_args(open, close);
      const std::string rule = sink_rule(m, base ? &*base : nullptr);
      const lex::Disclosure* disclosed = disclosure_at(line);
      const bool suppressed = disclosed != nullptr && !disclosed->reason.empty();
      if (!rule.empty()) {
        for (const auto& [a, b] : args) {
          const std::uint64_t mask = region_mask(a, b);
          if (mask == 0) continue;
          if (suppressed) continue;  // reviewed disclosure: flow ends here
          if (mask & kSecretBit) {
            emit(line, rule,
                 "tainted value '" + first_chain_text(a, b) + "' reaches " +
                     sink_noun(rule) + " via " + (base ? joined(*base) + "." : "") + m +
                     "() — add DAUTH_DISCLOSE(<reason>) if this release is intentional");
          }
          note_param_sink(mask & kAllParamBits, rule);
        }
        continue;
      }

      // Not a direct sink: consult the callee's interprocedural summary.
      const Func* callee = resolve(m, base ? &*base : nullptr, via_scope);
      if (callee == nullptr || callee->sum.params_to_sink == 0) continue;
      for (std::size_t k = 0; k < args.size(); ++k) {
        if (!(callee->sum.params_to_sink & param_bit(static_cast<int>(k)))) continue;
        const std::uint64_t mask = region_mask(args[k].first, args[k].second);
        if (mask == 0) continue;
        const auto rit = callee->param_sink_rule.find(static_cast<int>(k));
        const std::string irule = rit == callee->param_sink_rule.end() ? "T4" : rit->second;
        if (!suppressed && (mask & kSecretBit)) {
          emit(line, irule,
               "tainted value '" + first_chain_text(args[k].first, args[k].second) +
                   "' flows into " + callee->sum.qualified + "() which passes it to " +
                   sink_noun(irule) +
                   " — add DAUTH_DISCLOSE(<reason>) if this release is intentional");
        }
        if (!suppressed) note_param_sink(mask & kAllParamBits, irule);
      }
    }
  }

  /// Splits a call's argument list into top-level comma-separated ranges.
  std::vector<std::pair<std::size_t, std::size_t>> split_args(std::size_t open,
                                                              std::size_t close) const {
    std::vector<std::pair<std::size_t, std::size_t>> args;
    std::size_t start = open + 1;
    int angle = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      const Token& tok = t()[i];
      if (tok.kind != Token::Kind::kPunct) continue;
      if ((tok.text == "(" || tok.text == "[" || tok.text == "{") &&
          u.partner[i] != kNone) {
        i = u.partner[i];
        continue;
      }
      if (tok.text == "<") ++angle;
      if (tok.text == ">" && angle > 0) --angle;
      if (tok.text == "," && angle == 0) {
        args.emplace_back(start, i);
        start = i + 1;
      }
    }
    if (start < close) args.emplace_back(start, close);
    return args;
  }

  std::string first_chain_text(std::size_t a, std::size_t b) const {
    for (std::size_t i = a; i < b; ++i) {
      if (!is_ident(t(), i) || in_set(kStmtKeywords, t()[i].text)) continue;
      if (i > 0 && t()[i - 1].kind == Token::Kind::kPunct &&
          (t()[i - 1].text == "." || t()[i - 1].text == "->" || t()[i - 1].text == "::"))
        continue;
      const Chain c = build_chain(i);
      if (classify(c) != 0) return joined(c);
    }
    return render(u, a, std::min(b, a + 6));
  }

  void handle_memcpy(std::size_t open, std::size_t close) {
    const auto args = split_args(open, close);
    if (args.size() < 2) return;
    std::uint64_t src = 0;
    for (std::size_t k = 1; k < args.size(); ++k)
      src |= region_mask(args[k].first, args[k].second);
    if (src == 0) return;
    // Destination: the first chain of arg 0, with a trailing .data()/raw()
    // stripped — memcpy into buf.data() taints buf.
    for (std::size_t i = args[0].first; i < args[0].second; ++i) {
      if (!is_ident(t(), i)) continue;
      Chain c = build_chain(i);
      while (c.comps.size() > 1 &&
             (c.comps.back() == "data" || c.comps.back() == "raw" ||
              c.comps.back() == "mutable_view"))
        c.comps.pop_back();
      add_taint(decl_key(c), joined(c), src);
      return;
    }
  }

  void check_stream(std::size_t i) {
    // `stream << tainted` — only when the left side looks like a stream.
    const Chain lhs = left_chain(i - 1);
    bool streamish = false;
    if (!lhs.comps.empty()) {
      static const std::set<std::string, std::less<>> kStreamNames = {
          "os", "out", "oss", "ss", "cout", "cerr", "clog", "stream", "log"};
      streamish = in_set(kStreamNames, lhs.comps.back()) ||
                  contains(lower(var_type(lhs)), "stream");
    }
    if (!streamish) return;
    std::size_t j = i + 1;
    while (j < f.body_close && !is_punct(t(), j, ";") && !is_punct(t(), j, "<<")) {
      if ((is_punct(t(), j, "(") || is_punct(t(), j, "[")) && u.partner[j] != kNone) {
        j = u.partner[j] + 1;
        continue;
      }
      ++j;
    }
    const std::uint64_t mask = region_mask(i + 1, j);
    const int line = t()[i].line;
    const lex::Disclosure* disclosed = disclosure_at(line);
    if (disclosed != nullptr && !disclosed->reason.empty()) return;
    if (mask & kSecretBit) {
      emit(line, "T2",
           "tainted value '" + first_chain_text(i + 1, j) +
               "' is stream-inserted — secrets must not reach logs");
    }
    note_param_sink(mask & kAllParamBits, "T2");
  }

  bool run() {
    changed = false;
    seed();
    scan_declarations();
    scan_assignments();
    scan_returns();
    scan_calls_and_streams();
    return changed;
  }
};

// ---------------------------------------------------------------------------
// Pass 3: handler contracts.

struct ContractChecker {
  Program& prog;
  const Options& opts;
  std::vector<lint::Finding>& out;

  bool in_scope(const std::string& path) const {
    for (const std::string& s : opts.contract_scope) {
      if (contains(path, s)) return true;
    }
    return false;
  }

  /// Every declared service, `Service<Req, Rsp> name{"svc.name"}` (see
  /// sim/service.h), by the name of its constant, from every scanned unit.
  std::map<std::string, std::string> declared_services() const {
    std::map<std::string, std::string> services;
    for (const Unit& u : prog.units) {
      const std::vector<Token>& t = u.tokens;
      for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!is_ident(t, i, "Service") || !is_punct(t, i + 1, "<")) continue;
        const std::size_t name = skip_angles(u, i + 1);
        if (name == kNone || !is_ident(t, name) || name + 2 >= t.size()) continue;
        if (!(is_punct(t, name + 1, "{") || is_punct(t, name + 1, "(") ||
              is_punct(t, name + 1, "="))) {
          continue;
        }
        if (t[name + 2].kind == Token::Kind::kString) services[t[name].text] = t[name + 2].text;
      }
    }
    return services;
  }

  /// A registration is a call of `register_service` (by name) or `serve`
  /// (by declared service); its service is the first argument, at the
  /// call's own nesting level, that is a string literal or a declared
  /// service's constant. Registrations naming neither (the framework's own
  /// forwarding) are skipped.
  void check_registrations(const std::vector<HandlerContract>& table) {
    const std::map<std::string, std::string> declared = declared_services();
    for (Unit& u : prog.units) {
      if (!in_scope(u.path)) continue;
      const std::vector<Token>& t = u.tokens;
      for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!(is_ident(t, i, "register_service") || is_ident(t, i, "serve")) ||
            !is_punct(t, i + 1, "(")) {
          continue;
        }
        const std::size_t close = u.partner[i + 1];
        if (close == kNone) continue;
        std::string service;
        for (std::size_t j = i + 2; j < close && service.empty(); ++j) {
          if (t[j].kind == Token::Kind::kString) {
            service = t[j].text;
          } else if (t[j].kind == Token::Kind::kIdent) {
            if (const auto it = declared.find(t[j].text); it != declared.end()) {
              service = it->second;
            }
          } else if ((is_punct(t, j, "(") || is_punct(t, j, "[") || is_punct(t, j, "{")) &&
                     u.partner[j] != kNone) {
            j = u.partner[j];  // nested: a lambda body or a call's own arguments
          }
        }
        if (service.empty()) continue;
        const bool known = std::any_of(table.begin(), table.end(),
                                       [&](const HandlerContract& c) {
                                         return c.service == service;
                                       });
        if (!known) {
          out.push_back({u.path, t[i].line, "H1",
                         "RPC service '" + service +
                             "' has no handler contract — add one to "
                             "taint::default_contracts() stating its guards (or why "
                             "none are needed)"});
        }
      }
    }
  }

  const Func* find_handler(const HandlerContract& c) const {
    std::string cls, name = c.handler;
    const std::size_t sep = c.handler.find("::");
    if (sep != std::string::npos) {
      cls = c.handler.substr(0, sep);
      name = c.handler.substr(sep + 2);
    }
    const auto it = prog.by_name.find(name);
    if (it == prog.by_name.end()) return nullptr;
    for (std::size_t idx : it->second) {
      const Func& f = prog.funcs[idx];
      if (!cls.empty() && f.class_name != cls) continue;
      if (!in_scope(prog.units[f.unit].path)) continue;
      return &f;
    }
    return nullptr;
  }

  struct Pattern {
    std::vector<std::string> comps;
    bool subscript = false;
  };

  static Pattern parse_pattern(std::string_view text) {
    Pattern p;
    if (!text.empty() && text.back() == '[') {
      p.subscript = true;
      text.remove_suffix(1);
    }
    std::string comp;
    for (char c : text) {
      if (c == '.') {
        p.comps.push_back(comp);
        comp.clear();
      } else {
        comp += c;
      }
    }
    if (!comp.empty()) p.comps.push_back(comp);
    return p;
  }

  /// First token index in [a, b) matching the pattern, or kNone.
  std::size_t find_pattern(const Unit& u, std::size_t a, std::size_t b,
                           const Pattern& p) const {
    const std::vector<Token>& t = u.tokens;
    for (std::size_t i = a; i < b; ++i) {
      if (!is_ident(t, i, p.comps[0])) continue;
      std::size_t j = i;
      bool ok = true;
      for (std::size_t k = 1; k < p.comps.size(); ++k) {
        const std::size_t sep = j + 1;
        if (!(is_punct(t, sep, ".") || is_punct(t, sep, "->") ||
              is_punct(t, sep, "::")) ||
            !is_ident(t, sep + 1, p.comps[k])) {
          ok = false;
          break;
        }
        j = sep + 1;
      }
      if (!ok) continue;
      if (p.subscript && !is_punct(t, j + 1, "[")) continue;
      return i;
    }
    return kNone;
  }

  /// First call of guard `g` in [a, b), or kNone.
  std::size_t find_guard(const Unit& u, std::size_t a, std::size_t b,
                         const std::string& g) const {
    const std::vector<Token>& t = u.tokens;
    for (std::size_t i = a; i < b; ++i) {
      if (!is_ident(t, i, g)) continue;
      std::size_t open = i + 1;
      const std::size_t past = is_punct(t, open, "<") ? skip_angles(u, open) : kNone;
      if (past != kNone) open = past;
      if (is_punct(t, open, "(")) return i;
    }
    return kNone;
  }

  /// True if the guard call at `gi` sits inside an if-condition whose taken
  /// branch rejects (return / fail / throw / continue / break).
  bool guard_rejects(const Unit& u, std::size_t gi, std::size_t body_close) const {
    const std::vector<Token>& t = u.tokens;
    // Innermost enclosing paren group preceded by `if`.
    std::size_t best_open = kNone;
    for (std::size_t o = gi; o-- > 0;) {
      if (!is_punct(t, o, "(") || u.partner[o] == kNone) continue;
      if (u.partner[o] <= gi) continue;  // does not enclose the guard
      if (o > 0 && is_ident(t, o - 1, "if")) {
        best_open = o;
        break;  // scanning outward from gi: first hit is the innermost
      }
    }
    if (best_open == kNone) return false;
    const std::size_t cond_close = u.partner[best_open];
    std::size_t stmt_begin = cond_close + 1;
    std::size_t stmt_end;
    if (is_punct(t, stmt_begin, "{") && u.partner[stmt_begin] != kNone) {
      stmt_end = u.partner[stmt_begin];
    } else {
      stmt_end = stmt_begin;
      while (stmt_end < body_close && !is_punct(t, stmt_end, ";")) ++stmt_end;
    }
    for (std::size_t i = stmt_begin; i < stmt_end; ++i) {
      if (is_ident(t, i, "return") || is_ident(t, i, "fail") || is_ident(t, i, "throw") ||
          is_ident(t, i, "continue") || is_ident(t, i, "break"))
        return true;
    }
    return false;
  }

  void check(const std::vector<HandlerContract>& table) {
    check_registrations(table);
    for (const HandlerContract& c : table) {
      if (c.handler.empty()) continue;  // exempt by rationale
      const Func* f = find_handler(c);
      if (f == nullptr) {
        out.push_back({"<contract-table>", 0, "H5",
                       "contract for '" + c.service + "' names handler '" + c.handler +
                           "' which does not exist in the scanned sources"});
        continue;
      }
      const Unit& u = prog.units[f->unit];
      const std::size_t a = f->body_open + 1, b = f->body_close;

      std::size_t guard_front = 0;  // all guards must occur by this index
      bool guards_ok = true;
      for (const std::string& g : c.guards) {
        const std::size_t gi = find_guard(u, a, b, g);
        if (gi == kNone) {
          out.push_back({u.path, f->sum.line, "H2",
                         "handler for '" + c.service + "' never calls required guard '" +
                             g + "' (" + c.rationale + ")"});
          guards_ok = false;
          continue;
        }
        guard_front = std::max(guard_front, gi);
        if (!guard_rejects(u, gi, b)) {
          out.push_back({u.path, u.tokens[gi].line, "H4",
                         "guard '" + g + "' for '" + c.service +
                             "' is not a rejecting check — its failure branch must "
                             "return/fail before any state mutation"});
        }
      }
      if (!guards_ok || c.guards.empty()) {
        // With a missing guard the order check would only repeat H2; with no
        // guards there is nothing to dominate.
        continue;
      }
      for (const std::string& mtext : c.mutations) {
        const Pattern p = parse_pattern(mtext);
        if (p.comps.empty()) continue;
        const std::size_t mi = find_pattern(u, a, b, p);
        if (mi == kNone) continue;  // state renamed: the taint pass still covers it
        if (mi < guard_front) {
          out.push_back({u.path, u.tokens[mi].line, "H3",
                         "state mutation '" + mtext + "' in handler for '" + c.service +
                             "' precedes guard(s) — validate before mutating (" +
                             c.rationale + ")"});
        }
      }
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------

std::vector<HandlerContract> default_contracts() {
  return {
      {"backup.store",
       "BackupNetwork::handle_store",
       {"ct_equal"},
       {"homes_[", "users_[", "store_.put"},
       "store tag checked under the (home, backup) push key, over the SUCI secret "
       "and every pushed batch's fields, tree nodes and leaves, the record the "
       "backup holds: only the home, and only in a push made for this backup, "
       "may store material or set the SUCI secret (§4.2.1)"},
      {"backup.get_vector",
       "BackupNetwork::handle_get_vector",
       {},
       {},
       "deliberately unauthenticated (§4.2.2): a vector is useless without the "
       "UE's RES*, and flood-window sizing bounds the drain rate"},
      {"backup.get_share",
       "BackupNetwork::handle_get_share",
       {"ct_equal", "verify"},
       {"persist_proof", "take_vector"},
       "key-share release requires the RES* preimage of the stored H(XRES*) plus "
       "the serving network's signature on the usage proof (§4.2.2)"},
      {"backup.revoke_shares",
       "BackupNetwork::handle_revoke_shares",
       {"ct_equal"},
       {"release", "take_vector", "persist_batch"},
       "revoke tag checked under the (home, backup) push key, over the revoke "
       "and this backup's id: an unauthenticated revoke would be a share-deletion "
       "denial of service, and only the home, in a revoke made for this backup, "
       "may delete its users' shares (§4.3)"},
      {"home.get_vector",
       "HomeNetwork::handle_get_vector",
       {},
       {},
       "vector issuance is the service itself; RAND/AUTN/H(XRES*) are "
       "publishable and the SQN slice allocated is the home's own"},
      {"home.get_key",
       "HomeNetwork::handle_get_key",
       {"ct_equal", "verify"},
       {"pending_keys.erase", "seen_proofs[", "usage_ledger_["},
       "K_seaf release requires the RES* preimage plus the serving network's "
       "signature (§4.2.2); the ledger must only count verified use"},
      {"home.report",
       "HomeNetwork::process_proof",
       {"ct_equal"},
       {"seen_proofs[", "usage_ledger_[", "outstanding.erase", "holder"},
       "usage accounting and replenishment (the refill round is sized by the "
       "returned holder) may only be driven by preimage-verified proofs (§4.2.3)"},
      {"home.resync",
       "HomeNetwork::handle_resync",
       {"verify_auts"},
       {"resynchronize"},
       "the AUTS MAC-S must verify under the subscriber's K before the SQN "
       "allocator is rewound (TS 33.102 §6.3.5)"},
      {"home.ping",
       "",
       {},
       {},
       "liveness probe: reads no user state and mutates nothing"},
      {"serving.attach_request",
       "ServingNetwork::handle_attach_request",
       {},
       {},
       "entry point: creates a fresh attach context only; authentication "
       "happens at auth_response"},
      {"serving.auth_response",
       "ServingNetwork::handle_auth_response",
       {"awaits_response", "ct_equal"},
       {"complete_with_home_key", "collect_key_shares"},
       "key retrieval (and the RES* disclosure it entails) fires only for an "
       "attach whose challenge awaits the UE's reply, and only after H(RES*) "
       "matches the challenge bundle (§4.2.2)"},
      {"serving.resolve_guti",
       "ServingNetwork::handle_resolve_guti",
       {},
       {},
       "GUTI resolution is a read; reallocation happens in finish() after a "
       "successful authentication"},
      {"serving.handover_request",
       "ServingNetwork::handle_handover_request",
       {},
       {},
       "target side of handover: it trusts the reply on the channel it itself "
       "opened to the source; the source enforces the signature check"},
      {"serving.handover_context",
       "ServingNetwork::handle_handover_context",
       {"check_signature"},
       {"derive_handover_key", "guti_table_.erase"},
       "K_ho derivation and session retirement only for a signature-verified "
       "target network (one handover per GUTI); check_signature wraps "
       "ed25519_verify behind the verification cache"},
      {"serving.rrc_setup",
       "",
       {},
       {},
       "radio bookkeeping on an established attach context; no protected state"},
      {"serving.registration_complete",
       "",
       {},
       {},
       "post-auth bookkeeping on an attach context that finish() already "
       "authenticated"},
      {"dir.get_network",
       "",
       {},
       {},
       "read of public, self-signed directory data (§3.4); clients verify the "
       "entry signature, so the directory needs no trust"},
      {"dir.get_home",
       "",
       {},
       {},
       "read of a public home-signed mapping (§3.4); verified client-side "
       "against the home network's key"},
      {"dir.get_backups",
       "",
       {},
       {},
       "read of a public home-signed backup list (§3.4); verified client-side"},
      {"dir.register_network",
       "DirectoryServer::register_network",
       {"verify"},
       {"networks_[", "persist"},
       "a network entry is only accepted self-signed: otherwise an attacker "
       "could redirect a federation member's address or keys"},
      {"dir.register_user",
       "DirectoryServer::register_user",
       {"verify"},
       {"users_[", "persist"},
       "a subscriber mapping must carry the home network's signature, or an "
       "attacker could re-home users to a network it controls"},
      {"dir.set_backups",
       "DirectoryServer::set_backups",
       {"verify"},
       {"backups_[", "persist"},
       "the backup list gates where vectors and key shares are disseminated "
       "(§4.2.1); only the home network may change it"},
  };
}

const FunctionSummary* Analysis::find_function(std::string_view name) const {
  for (const FunctionSummary& f : functions) {
    if (f.name == name || f.qualified == name) return &f;
  }
  return nullptr;
}

Analysis analyze(const std::vector<SourceFile>& files, const Options& options) {
  Program prog;
  prog.units.reserve(files.size());
  for (const SourceFile& f : files) {
    Unit u;
    u.path = f.path;
    lex::LexResult lexed = lex::lex(f.content);
    u.tokens = std::move(lexed.tokens);
    u.disclosures = std::move(lexed.disclosures);
    build_partners(u);
    for (const lex::Disclosure& d : u.disclosures) {
      u.disclosed_lines[d.covers_next ? d.line + 1 : d.line] = &d;
    }
    prog.units.push_back(std::move(u));
  }
  for (std::size_t i = 0; i < prog.units.size(); ++i) {
    Parser{prog, i, prog.units[i], {}, {}}.parse();
  }
  compute_carrying(prog);

  // Seed declared member variables into every method of the class, so
  // `store_` resolves to its declared KvStore type inside BackupNetwork
  // methods, etc.
  for (Func& f : prog.funcs) {
    const auto it = prog.types.find(f.class_name);
    if (it == prog.types.end()) continue;
    for (const auto& [mname, mtype] : it->second.members) {
      f.vars.emplace(mname, std::vector<Decl>{{0, kNone, mtype}});
    }
  }

  Analysis result;
  if (options.taint) {
    // Interprocedural fixed point: local taint and call-graph summaries grow
    // monotonically until stable (bounded for safety; real code converges in
    // a handful of rounds).
    for (int round = 0; round < 16; ++round) {
      bool changed = false;
      for (Func& f : prog.funcs) {
        Engine e{prog, f, prog.units[f.unit]};
        changed |= e.run();
      }
      if (!changed) break;
    }
    for (Func& f : prog.funcs) {
      Engine e{prog, f, prog.units[f.unit]};
      e.report = true;
      e.out = &result.findings;
      e.run();
    }
    // T5: every DAUTH_DISCLOSE must carry a written justification.
    for (const Unit& u : prog.units) {
      for (const lex::Disclosure& d : u.disclosures) {
        if (d.reason.empty()) {
          result.findings.push_back(
              {u.path, d.line, "T5",
               "DAUTH_DISCLOSE without a justification — write the reason inside "
               "the parentheses"});
        }
      }
    }
  }
  if (options.contracts) {
    const std::vector<HandlerContract> table =
        options.contract_table.empty() ? default_contracts() : options.contract_table;
    ContractChecker{prog, options, result.findings}.check(table);
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const lint::Finding& a, const lint::Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  result.findings.erase(std::unique(result.findings.begin(), result.findings.end()),
                        result.findings.end());

  for (const Func& f : prog.funcs) result.functions.push_back(f.sum);
  result.secret_carrying_types.assign(prog.carrying.begin(), prog.carrying.end());
  return result;
}

}  // namespace dauth::taint
