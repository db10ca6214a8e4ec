/**
 * @file
 * Minimal JSON value model and recursive-descent parser for the
 * cobra_serve request documents. COBRA historically only *emitted*
 * JSON (common/json.hpp); the daemon is the first consumer that must
 * parse untrusted input, so the parser is strict (no comments, no
 * trailing commas, UTF-8 passed through verbatim), depth-bounded, and
 * reports every syntax error as a JsonError naming the byte offset —
 * a malformed request becomes a structured "invalid_request" failure
 * record, never undefined behaviour.
 */

#ifndef COBRA_SERVE_JSON_HPP
#define COBRA_SERVE_JSON_HPP

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace cobra::serve {

/** Malformed JSON text; what() names the byte offset. */
class JsonError : public std::runtime_error
{
  public:
    JsonError(std::size_t offset, const std::string& detail)
        : std::runtime_error("json parse error at byte " +
                             std::to_string(offset) + ": " + detail),
          offset_(offset)
    {
    }

    std::size_t offset() const { return offset_; }

  private:
    std::size_t offset_;
};

/**
 * One parsed JSON value. Objects preserve no insertion order (keyed
 * lookup only); numbers keep both a double and, when exactly
 * representable, an integer view so counters survive untruncated.
 */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw JsonError(0, ...) on a kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    std::uint64_t asU64() const;
    const std::string& asString() const;
    const std::vector<Json>& asArray() const;
    const std::map<std::string, Json>& asObject() const;

    /** Object member, or nullptr when absent / not an object. */
    const Json* find(const std::string& key) const;

    // ---- Typed object-member helpers (defaulted lookups) ------------
    bool getBool(const std::string& key, bool dflt) const;
    double getDouble(const std::string& key, double dflt) const;
    std::uint64_t getU64(const std::string& key,
                         std::uint64_t dflt) const;
    std::string getString(const std::string& key,
                          const std::string& dflt) const;

    /**
     * Parse @p text as one JSON document (leading/trailing whitespace
     * allowed, anything else after the value is an error). Throws
     * JsonError on malformed input or nesting deeper than 64 levels.
     */
    static Json parse(const std::string& text);

    // ---- Construction (tests and writers) ----------------------------
    static Json makeNull();
    static Json makeBool(bool b);
    static Json makeNumber(double d);
    static Json makeString(std::string s);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    bool numIsInt_ = false;     ///< num_ was written as an integer.
    std::int64_t int_ = 0;      ///< Integer view (valid iff numIsInt_).
    std::string str_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;

    friend class JsonParser;
};

/**
 * The first member key of object @p obj (in key order) that is not in
 * @p known, or nullptr when every key is known. Schema parsers turn it
 * into their own error, so a misspelt field is rejected by name rather
 * than silently left at its default.
 */
const std::string* firstUnknownKey(const Json& obj,
                                   std::initializer_list<const char*> known);

} // namespace cobra::serve

#endif // COBRA_SERVE_JSON_HPP
